"""Table 1: empirical validation of the verification complexity bounds.

The paper states asymptotic fork-time, join-time and space costs per
algorithm (reproduced in :mod:`repro.core`).  This experiment measures
them: for fork trees of several shapes (chain: h = n; star: h = 1;
balanced binary: h = log n) and increasing sizes, it times ``add_child``
and ``permits`` per operation and reads back ``space_units``.

The headline checks (asserted by the accompanying benchmark):

* on chains, TJ-GT/TJ-SP join time grows ~linearly with n while TJ-JP
  grows ~logarithmically and TJ-OM stays flat;
* on stars, all TJ join times are flat;
* KJ-VC space grows superlinearly on chain-with-joins workloads while
  KJ-SS and TJ-GT stay linear.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..core.policy import JoinPolicy, make_policy
from ..formal.actions import Action, Fork, Init

__all__ = ["ComplexityPoint", "measure_policy_costs", "render_table1", "TABLE1_BOUNDS"]

#: the paper's stated bounds, for the report footer
TABLE1_BOUNDS = {
    "KJ-VC": ("O(n)", "O(n)", "O(n^2)"),
    "KJ-SS": ("O(1)", "O(n)", "O(n)"),
    "TJ-GT": ("O(1)", "O(h)", "O(n)"),
    "TJ-JP": ("O(log h)", "O(log h)", "O(n log h)"),
    "TJ-SP": ("O(1)", "O(h)", "O(n)"),  # flat arrays; amortised O(1) re-joins
    "TJ-SP-legacy": ("O(h)", "O(h)", "O(n h)"),  # the paper's Algorithm 3 bounds
    "TJ-OM": ("O(1)*", "O(1)", "O(n)"),
}


@dataclass
class ComplexityPoint:
    """Measured costs for one (policy, shape, size) cell."""

    policy: str
    shape: str
    n_tasks: int
    fork_us: float  # mean microseconds per add_child
    join_us: float  # mean microseconds per permits query
    space_units: int


def _build(policy: JoinPolicy, trace: Iterable[Action]) -> tuple[dict, float]:
    """Replay forks; return (vertices, mean fork microseconds)."""
    vertices: dict = {}
    n = 0
    t0 = time.perf_counter()
    for action in trace:
        if isinstance(action, Init):
            vertices[action.task] = policy.add_child(None)
        elif isinstance(action, Fork):
            vertices[action.child] = policy.add_child(vertices[action.parent])
        n += 1
    elapsed = time.perf_counter() - t0
    return vertices, elapsed / n * 1e6


def measure_policy_costs(
    policy_name: str,
    shape: str,
    trace: Sequence[Action],
    queries: int = 2000,
    seed: int = 0,
) -> ComplexityPoint:
    """Measure one cell of the empirical Table 1."""
    policy = make_policy(policy_name)
    vertices, fork_us = _build(policy, trace)
    handles = list(vertices.values())
    rng = random.Random(seed)
    pairs = [
        (rng.choice(handles), rng.choice(handles)) for _ in range(queries)
    ]
    t0 = time.perf_counter()
    for a, b in pairs:
        policy.permits(a, b)
    join_us = (time.perf_counter() - t0) / queries * 1e6
    return ComplexityPoint(
        policy=policy_name,
        shape=shape,
        n_tasks=len(handles),
        fork_us=fork_us,
        join_us=join_us,
        space_units=policy.space_units(),
    )


def render_table1(points: Sequence[ComplexityPoint]) -> str:
    """Group measured points into a per-policy scaling report."""
    if not points:
        raise ValueError("no points to render")
    lines = [
        f"{'policy':<7} {'shape':<9} {'n':>7} {'fork us':>9} {'join us':>9} {'space':>10}",
        "-" * 56,
    ]
    for p in sorted(points, key=lambda p: (p.policy, p.shape, p.n_tasks)):
        lines.append(
            f"{p.policy:<7} {p.shape:<9} {p.n_tasks:>7} "
            f"{p.fork_us:>9.2f} {p.join_us:>9.2f} {p.space_units:>10}"
        )
    lines.append("-" * 56)
    lines.append("paper bounds (fork, join, space); h = tree height:")
    for name, (f, j, s) in TABLE1_BOUNDS.items():
        lines.append(f"  {name:<7} {f:<10} {j:<10} {s}")
    lines.append("  (* TJ-OM is an extension beyond the paper; amortised)")
    return "\n".join(lines)
