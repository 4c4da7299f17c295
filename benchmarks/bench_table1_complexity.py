"""Experiment E1 — Table 1: per-operation verifier costs by algorithm.

Benchmarks ``add_child`` (fork) and ``permits`` (join) for every policy
on the three canonical tree shapes, and asserts the *scaling shape* the
paper's Table 1 predicts (who grows with n/h and who stays flat).  Run
with ``pytest benchmarks/bench_table1_complexity.py --benchmark-only``.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.table1 import measure_policy_costs
from repro.core import make_policy
from repro.formal.actions import Fork, Init
from repro.formal.generators import (
    balanced_fork_trace,
    chain_fork_trace,
    star_fork_trace,
)

ALL_POLICIES = ["KJ-VC", "KJ-SS", "TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM"]
SHAPES = {
    "chain": chain_fork_trace,
    "star": star_fork_trace,
    "balanced": balanced_fork_trace,
}
N = 2000


def _replay_forks(policy, trace):
    vertices = {}
    for action in trace:
        if isinstance(action, Init):
            vertices[action.task] = policy.add_child(None)
        elif isinstance(action, Fork):
            vertices[action.child] = policy.add_child(vertices[action.parent])
    return vertices


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_fork_cost(benchmark, policy_name, shape):
    """Time to install all N vertices (the per-fork column of Table 1)."""
    trace = SHAPES[shape](N)
    benchmark.group = f"table1-fork-{shape}"
    benchmark.pedantic(
        lambda: _replay_forks(make_policy(policy_name), trace),
        rounds=5,
        iterations=1,
    )


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("policy_name", ALL_POLICIES)
def test_join_cost(benchmark, policy_name, shape):
    """Time for 1000 random permission queries (the per-join column)."""
    trace = SHAPES[shape](N)
    policy = make_policy(policy_name)
    vertices = list(_replay_forks(policy, trace).values())
    rng = random.Random(42)
    pairs = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(1000)]

    def run_queries():
        for a, b in pairs:
            policy.permits(a, b)

    benchmark.group = f"table1-join-{shape}"
    benchmark.pedantic(run_queries, rounds=5, iterations=1)


class TestScalingShape:
    """Assert Table 1's asymptotic relationships empirically.

    Each check compares per-op cost between a small and an 8x larger
    input and bounds the growth factor: linear terms must grow clearly,
    constant/log terms must not.  Thresholds are loose (4x margins) to
    stay robust on noisy machines.
    """

    SIZES = (500, 4000)

    def _costs(self, policy, shape):
        gen = SHAPES[shape]
        return [
            measure_policy_costs(policy, shape, gen(n), queries=800)
            for n in self.SIZES
        ]

    def test_kj_ss_join_grows_linearly_on_chains(self):
        small, big = self._costs("KJ-SS", "chain")
        assert big.join_us / small.join_us > 3.0  # ideal 8x

    def test_tj_gt_join_grows_with_height(self):
        small, big = self._costs("TJ-GT", "chain")
        assert big.join_us / small.join_us > 2.5

    def test_tj_gt_join_flat_on_stars(self):
        small, big = self._costs("TJ-GT", "star")
        assert big.join_us / small.join_us < 3.0

    def test_tj_jp_join_sublinear_on_chains(self):
        small, big = self._costs("TJ-JP", "chain")
        assert big.join_us / small.join_us < 3.0  # ideal log(8x) ~ 1.2x

    def test_tj_om_join_flat_everywhere(self):
        for shape in SHAPES:
            small, big = self._costs("TJ-OM", shape)
            assert big.join_us / small.join_us < 3.0

    def test_space_linear_for_tj_gt_and_om(self):
        for policy in ("TJ-GT", "TJ-OM"):
            small, big = self._costs(policy, "chain")
            ratio = big.space_units / small.space_units
            assert 7.0 < ratio < 9.0  # exactly 8x tasks -> 8x space

    def test_tj_sp_legacy_space_quadratic_on_chains(self):
        """The seed tuple-per-task TJ-SP keeps its O(n·h) chain blow-up."""
        small, big = self._costs("TJ-SP-legacy", "chain")
        ratio = big.space_units / small.space_units
        assert ratio > 30.0  # O(n h) = O(n^2) on chains: ideal 64x

    def test_tj_sp_interned_space_linear_on_chains(self):
        """Flat rows share path prefixes: one row per task, O(n) space."""
        small, big = self._costs("TJ-SP", "chain")
        ratio = big.space_units / small.space_units
        assert 7.0 < ratio < 9.0  # exactly 8x tasks -> 8x space

    def test_kj_vc_fork_slower_than_kj_ss_on_wide_knowledge(self):
        """KJ-VC copies clocks at fork (O(n)); KJ-SS records O(1)."""
        trace = star_fork_trace(3000)
        vc = measure_policy_costs("KJ-VC", "star", trace, queries=10)
        ss = measure_policy_costs("KJ-SS", "star", trace, queries=10)
        # on a star every child inherits a growing clock in VC
        assert vc.fork_us > ss.fork_us
