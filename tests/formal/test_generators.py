"""Unit tests for the random trace generators."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

from repro.formal.actions import Fork, Init, Join
from repro.formal.deadlock import contains_deadlock
from repro.formal.fork_tree import ForkTree
from repro.formal.generators import (
    balanced_fork_trace,
    chain_fork_trace,
    random_deadlocking_trace,
    random_fork_trace,
    random_kj_valid_trace,
    random_tj_valid_trace,
    star_fork_trace,
)
from repro.formal.trace import is_kj_valid, is_structurally_valid, is_tj_valid


class TestShapeGenerators:
    def test_chain_height(self):
        tree = ForkTree.from_trace(chain_fork_trace(10))
        assert tree.height() == 9

    def test_star_height(self):
        tree = ForkTree.from_trace(star_fork_trace(10))
        assert tree.height() == 1
        assert len(tree.children("t0")) == 9

    def test_balanced_height(self):
        tree = ForkTree.from_trace(balanced_fork_trace(15, arity=2))
        assert tree.height() == 3  # perfect binary tree of 15 nodes

    def test_balanced_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            balanced_fork_trace(5, arity=0)

    def test_single_task(self):
        assert chain_fork_trace(1) == [Init("t0")]


class TestRandomGenerators:
    def test_random_fork_trace_structure(self):
        for seed in range(5):
            trace = random_fork_trace(random.Random(seed), 25)
            assert is_structurally_valid(trace)
            assert sum(isinstance(a, Fork) for a in trace) == 24

    def test_random_fork_trace_requires_a_task(self):
        with pytest.raises(ValueError):
            random_fork_trace(random.Random(0), 0)

    def test_tj_valid_generator(self):
        for seed in range(8):
            trace = random_tj_valid_trace(random.Random(seed), 15, 20)
            assert is_tj_valid(trace)
            assert not contains_deadlock(trace)

    def test_kj_valid_generator(self):
        for seed in range(8):
            trace = random_kj_valid_trace(random.Random(seed), 15, 20)
            assert is_kj_valid(trace)

    def test_deadlocking_generator(self):
        for seed in range(8):
            trace = random_deadlocking_trace(random.Random(seed), 10, cycle_len=2)
            assert is_structurally_valid(trace)
            assert contains_deadlock(trace)
            assert not is_tj_valid(trace)

    def test_generators_are_deterministic_per_seed(self):
        t1 = random_tj_valid_trace(random.Random(42), 12, 12)
        t2 = random_tj_valid_trace(random.Random(42), 12, 12)
        assert t1 == t2

    def test_kj_traces_do_not_depend_on_the_hash_seed(self):
        """One seed, one trace, in every interpreter: the knowledge sets
        the generator draws from are sets of strings, whose iteration
        order follows PYTHONHASHSEED."""
        code = (
            "import random, zlib\n"
            "from repro.formal.generators import random_kj_valid_trace\n"
            "traces = [random_kj_valid_trace(random.Random(s), 12, 16) for s in range(20)]\n"
            "print(zlib.crc32(repr(traces).encode()))\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        digests = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, check=True, timeout=60,
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            ).stdout
            for hash_seed in ("1", "2")
        }
        assert len(digests) == 1

    def test_join_counts(self):
        trace = random_tj_valid_trace(random.Random(3), 10, 7)
        joins = sum(isinstance(a, Join) for a in trace)
        assert joins <= 7  # singleton steps may be skipped
