"""Ablation A1 — choice of LCA algorithm (Section 5.2).

The paper implements TJ-SP and argues TJ-JP "may only pay off if the
fork tree is very deep" (their benchmarks never exceed height 8).  This
ablation measures all four TJ algorithms — plus the KJ baselines and the
KJ-CC extension — on shallow *and* deep fork trees, quantifying exactly
that trade-off.
"""

from __future__ import annotations

import random

import pytest

from repro.core import make_policy
from repro.formal.actions import Fork, Init
from repro.formal.generators import (
    balanced_fork_trace,
    chain_fork_trace,
    star_fork_trace,
)

TJ_ALGOS = ["TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM"]
KJ_ALGOS = ["KJ-VC", "KJ-SS", "KJ-CC"]

TREES = {
    "shallow-star": star_fork_trace(4000),  # height 1 (Crypt/Series shape)
    "shallow-tree": balanced_fork_trace(4095, arity=8),  # height 4 (Strassen)
    "deep-chain": chain_fork_trace(4000),  # height 3999 (adversarial)
}


def _replay(policy, trace):
    vertices = {}
    for action in trace:
        if isinstance(action, Init):
            vertices[action.task] = policy.add_child(None)
        elif isinstance(action, Fork):
            vertices[action.child] = policy.add_child(vertices[action.parent])
    return list(vertices.values())


def _query_pairs(handles, k=2000, seed=3):
    rng = random.Random(seed)
    return [(rng.choice(handles), rng.choice(handles)) for _ in range(k)]


@pytest.mark.parametrize("shape", list(TREES))
@pytest.mark.parametrize("algo", TJ_ALGOS)
def test_tj_join_query_cost(benchmark, algo, shape):
    policy = make_policy(algo)
    handles = _replay(policy, TREES[shape])
    pairs = _query_pairs(handles)

    def run():
        for a, b in pairs:
            policy.permits(a, b)

    benchmark.group = f"lca-join-{shape}"
    benchmark.pedantic(run, rounds=5, iterations=1)


@pytest.mark.parametrize("shape", list(TREES))
@pytest.mark.parametrize("algo", TJ_ALGOS)
def test_tj_fork_cost(benchmark, algo, shape):
    trace = TREES[shape]
    benchmark.group = f"lca-fork-{shape}"
    benchmark.pedantic(
        lambda: _replay(make_policy(algo), trace), rounds=5, iterations=1
    )


@pytest.mark.parametrize("algo", KJ_ALGOS)
def test_kj_fork_cost_flat_tree(benchmark, algo):
    """KJ-VC's O(n) fork copies vs KJ-SS/KJ-CC O(1)-ish on the Crypt shape."""
    trace = star_fork_trace(4000)
    benchmark.group = "kj-fork-star"
    benchmark.pedantic(
        lambda: _replay(make_policy(algo), trace), rounds=3, iterations=1
    )


class TestAblationClaims:
    def test_jp_beats_gt_and_sp_on_deep_chains(self):
        """The paper's Section 5.2.2 conjecture, verified."""
        import time

        trace = TREES["deep-chain"]
        costs = {}
        for algo in ("TJ-GT", "TJ-JP", "TJ-SP"):
            policy = make_policy(algo)
            handles = _replay(policy, trace)
            pairs = _query_pairs(handles, k=1500)
            t0 = time.perf_counter()
            for a, b in pairs:
                policy.permits(a, b)
            costs[algo] = time.perf_counter() - t0
        assert costs["TJ-JP"] < costs["TJ-GT"]
        assert costs["TJ-JP"] < costs["TJ-SP"]

    def test_space_ranking_on_deep_chains(self):
        """O(n) [GT, OM, flat SP] < O(n log h) [JP] < O(n h) [legacy SP]."""
        units = {}
        for algo in (*TJ_ALGOS, "TJ-SP-legacy"):
            policy = make_policy(algo)
            _replay(policy, TREES["deep-chain"])
            units[algo] = policy.space_units()
        assert units["TJ-GT"] < units["TJ-JP"] < units["TJ-SP-legacy"]
        assert units["TJ-OM"] < units["TJ-JP"]
        # interning collapses TJ-SP to O(n): one shared node per task
        assert units["TJ-SP"] < units["TJ-JP"]

    def test_kj_cc_space_beats_kj_vc_on_flat_trees(self):
        trace = star_fork_trace(3000)
        vc, cc = make_policy("KJ-VC"), make_policy("KJ-CC")
        _replay(vc, trace)
        _replay(cc, trace)
        assert cc.space_units() < vc.space_units() / 50
