"""Hot-path microbenchmarks for the verifier fork/join pipeline.

Unlike the Table 2 harness (whole benchmark programs on real runtimes),
this module measures the *verifier hot path itself* — ``on_fork`` /
``check_join`` / ``check_joins`` through :class:`~repro.core.verifier.Verifier`
— on four synthetic workload shapes chosen to stress different cost
terms:

* ``join-heavy`` — a balanced tree, then repeated barrier-style rounds
  in which the same waiters re-check joins against the same targets
  (the phaser/finish pattern the monotone verdict cache accelerates);
* ``fork-heavy`` — thousands of forks on a bushy tree with only a few
  checks (stresses per-fork allocation: O(1) array append vs O(h)
  tuple copy);
* ``deep-tree`` — a degenerate chain with random order queries
  (stresses the ``Less`` walk length);
* ``wide-tree`` — a star with sibling-heavy queries (the shallow bushy
  shape real programs produce).

Every shape runs each policy through the *same* verifier code path, so
the numbers include the statistics plumbing — which is the point: this
is the per-event overhead the paper argues can stay near 1.06×.

Results serialise to ``BENCH_hotpath.json`` via :mod:`repro.analysis.io`
so every future change has a stored perf trajectory to compare against;
``benchmarks/bench_hotpath.py`` asserts the headline regression gates
(flat TJ-SP at least 2× the legacy tuple implementation on join-heavy,
and within 1.1× of KJ-VC per-event cost when the compiled kernel is in
play).  Each measurement records which kernel backend produced it
(``"c"``/``"py"`` for flat TJ-SP, ``"py"`` for everything else), so
stored trajectories from different arms are never conflated.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from ..core.policy import make_policy
from ..core.verifier import Verifier

__all__ = [
    "HotpathMeasurement",
    "HOTPATH_SHAPES",
    "HOTPATH_POLICIES",
    "SHAPE_PARAMS",
    "SMOKE_PARAMS",
    "run_shape",
    "run_hotpath_suite",
    "speedup",
    "render_hotpath_table",
]

#: policies covered by the suite: the flat TJ-SP, its seed baseline,
#: the other TJ variants, and the KJ baselines.
HOTPATH_POLICIES = (
    "TJ-SP",
    "TJ-SP-legacy",
    "TJ-GT",
    "TJ-JP",
    "TJ-OM",
    "KJ-VC",
    "KJ-SS",
)

#: default workload parameters per shape (kept small enough that the
#: whole suite across all policies finishes well under a minute).
SHAPE_PARAMS: dict[str, dict[str, int]] = {
    "join-heavy": {"tasks": 512, "waiters": 32, "targets": 32, "rounds": 24},
    "fork-heavy": {"tasks": 4000, "queries": 200, "window": 64},
    "deep-tree": {"tasks": 1200, "queries": 2500},
    "wide-tree": {"tasks": 3000, "queries": 4000},
}

#: tiny parameters for CI smoke runs (~seconds across all policies).
SMOKE_PARAMS: dict[str, dict[str, int]] = {
    "join-heavy": {"tasks": 128, "waiters": 12, "targets": 12, "rounds": 8},
    "fork-heavy": {"tasks": 800, "queries": 60, "window": 32},
    "deep-tree": {"tasks": 300, "queries": 500},
    "wide-tree": {"tasks": 600, "queries": 800},
}

HOTPATH_SHAPES = tuple(SHAPE_PARAMS)

_SEED = 0x7A015


@dataclass
class HotpathMeasurement:
    """All timed repetitions of one (shape, policy) cell."""

    shape: str
    policy: str
    times: list[float] = field(default_factory=list)
    events: int = 0  # verifier events (forks + join checks) per repetition
    backend: str = "py"  # the kernel that answered: "c" or "py"

    @property
    def best_time(self) -> float:
        return min(self.times) if self.times else math.nan

    @property
    def mean_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else math.nan

    @property
    def events_per_sec(self) -> float:
        best = self.best_time
        return self.events / best if best and best == best else math.nan


# ----------------------------------------------------------------------
# tree builders (all events funnel through the Verifier, stats included)
# ----------------------------------------------------------------------
def _build_balanced(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    for k in range(1, n):
        nodes.append(verifier.on_fork(nodes[(k - 1) // 2]))
    return nodes


def _build_chain(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    for _ in range(1, n):
        nodes.append(verifier.on_fork(nodes[-1]))
    return nodes


def _build_star(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    root = nodes[0]
    for _ in range(1, n):
        nodes.append(verifier.on_fork(root))
    return nodes


def _build_bushy(verifier: Verifier, n: int, window: int, rng: random.Random) -> list:
    """Attach each new task to a random recent node — deepish, bushy."""
    nodes = [verifier.on_init()]
    for _ in range(1, n):
        parent = nodes[-rng.randint(1, min(window, len(nodes)))]
        nodes.append(verifier.on_fork(parent))
    return nodes


# ----------------------------------------------------------------------
# workload bodies — each returns after driving one full repetition
# ----------------------------------------------------------------------
def _run_join_heavy(verifier: Verifier, p: dict[str, int]) -> None:
    rng = random.Random(_SEED)
    nodes = _build_balanced(verifier, p["tasks"])
    waiters = rng.sample(nodes, p["waiters"])
    targets = rng.sample(nodes, p["targets"])
    for _ in range(p["rounds"]):
        for waiter in waiters:
            verifier.check_joins(waiter, targets)


def _run_fork_heavy(verifier: Verifier, p: dict[str, int]) -> None:
    rng = random.Random(_SEED)
    nodes = _build_bushy(verifier, p["tasks"], p["window"], rng)
    for _ in range(p["queries"]):
        verifier.check_join(rng.choice(nodes), rng.choice(nodes))


def _run_deep_tree(verifier: Verifier, p: dict[str, int]) -> None:
    rng = random.Random(_SEED)
    nodes = _build_chain(verifier, p["tasks"])
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(p["queries"])]
    check = verifier.check_join
    for a, b in pairs:
        check(a, b)


def _run_wide_tree(verifier: Verifier, p: dict[str, int]) -> None:
    rng = random.Random(_SEED)
    nodes = _build_star(verifier, p["tasks"])
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(p["queries"])]
    check = verifier.check_join
    for a, b in pairs:
        check(a, b)


_SHAPE_RUNNERS: dict[str, Callable[[Verifier, dict[str, int]], None]] = {
    "join-heavy": _run_join_heavy,
    "fork-heavy": _run_fork_heavy,
    "deep-tree": _run_deep_tree,
    "wide-tree": _run_wide_tree,
}


# ----------------------------------------------------------------------
# the suite
# ----------------------------------------------------------------------
def run_shape(
    shape: str,
    policy: str,
    *,
    repetitions: int = 3,
    warmup: int = 1,
    params: Optional[dict[str, int]] = None,
) -> HotpathMeasurement:
    """Measure one (shape, policy) cell: warmups then timed repetitions.

    Every repetition builds a fresh policy + verifier, so caches start
    cold each time and cross-repetition state cannot flatter a policy;
    within a repetition, repeated joins (the join-heavy rounds) hit the
    caches exactly as a real barrier loop would.
    """
    runner = _SHAPE_RUNNERS[shape]
    p = dict(params if params is not None else SHAPE_PARAMS[shape])
    m = HotpathMeasurement(shape=shape, policy=policy)
    for i in range(warmup + repetitions):
        verifier = Verifier(make_policy(policy))
        t0 = time.perf_counter()
        runner(verifier, p)
        elapsed = time.perf_counter() - t0
        if i >= warmup:
            m.times.append(elapsed)
    stats = verifier.stats
    m.events = stats.forks + stats.joins_checked
    m.backend = getattr(verifier.policy, "backend", "py")
    return m


def run_hotpath_suite(
    *,
    policies: Sequence[str] = HOTPATH_POLICIES,
    shapes: Sequence[str] = HOTPATH_SHAPES,
    repetitions: int = 3,
    warmup: int = 1,
    params: Optional[dict[str, dict[str, int]]] = None,
) -> list[HotpathMeasurement]:
    """Run the full shape x policy grid; returns one measurement per cell."""
    table = params if params is not None else SHAPE_PARAMS
    return [
        run_shape(
            shape,
            policy,
            repetitions=repetitions,
            warmup=warmup,
            params=table.get(shape),
        )
        for shape in shapes
        for policy in policies
    ]


def speedup(
    measurements: Sequence[HotpathMeasurement],
    shape: str,
    policy: str = "TJ-SP",
    baseline: str = "TJ-SP-legacy",
) -> float:
    """Best-time speedup factor of *policy* over *baseline* on *shape*."""
    by_key = {(m.shape, m.policy): m for m in measurements}
    return by_key[(shape, baseline)].best_time / by_key[(shape, policy)].best_time


def render_hotpath_table(measurements: Sequence[HotpathMeasurement]) -> str:
    """ASCII summary: one row per cell, with the TJ-SP speedup column."""
    lines = [
        f"{'shape':<12} {'policy':<14} {'backend':>7} {'best ms':>9} "
        f"{'mean ms':>9} {'events':>8} {'Mev/s':>7}",
        "-" * 72,
    ]
    for m in measurements:
        lines.append(
            f"{m.shape:<12} {m.policy:<14} {m.backend:>7} "
            f"{m.best_time * 1e3:>9.2f} {m.mean_time * 1e3:>9.2f} "
            f"{m.events:>8} {m.events_per_sec / 1e6:>7.2f}"
        )
    shapes = sorted({m.shape for m in measurements})
    have = {(m.shape, m.policy) for m in measurements}
    factors = []
    for shape in shapes:
        if (shape, "TJ-SP") in have and (shape, "TJ-SP-legacy") in have:
            factors.append(f"{shape}: {speedup(measurements, shape):.2f}x")
    if factors:
        lines.append("")
        lines.append("TJ-SP speedup over TJ-SP-legacy (best times): " + ", ".join(factors))
    return "\n".join(lines)
