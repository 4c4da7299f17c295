"""The bound table: every benchmark gate as one named row.

A row names a metric (a record of :mod:`repro.analysis.suites`), a
comparator, its limit at full scale and at smoke scale (``None``: full
scale only) and, where the machine may be unable to check it, a
precondition.  :func:`judge` gives each row one status:

* ``PASS`` / ``FAIL`` — the record's value against the row's limit (a
  row whose record is missing fails);
* ``NOT ENFORCEABLE`` — the row does not apply at this scale, or its
  precondition does not hold here; the reason is printed, never dropped.

Correctness checks (results equal, event streams equal, payloads
shipped) are not rows: the suites raise on them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Optional

from .record import Measurement

__all__ = ["PASS", "FAIL", "NOT_ENFORCEABLE", "Bound", "BOUNDS", "judge"]

PASS, FAIL, NOT_ENFORCEABLE = "PASS", "FAIL", "NOT ENFORCEABLE"

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}

#: (fingerprint, the row's record) -> None, or why the row cannot be judged here
Precondition = Callable[[dict, Measurement], Optional[str]]


@dataclass(frozen=True)
class Bound:
    row: str
    metric: str
    op: str
    full: float
    smoke: Optional[float]
    when: Optional[Precondition] = None


def _kernel(backend: str) -> Precondition:
    def when(finger: dict, m: Measurement) -> Optional[str]:
        if m.params["backend"] != backend:
            return f"TJ-SP ran on the {m.params['backend']} kernel"
        return None

    return when


def _parallel_pool(finger: dict, m: Measurement) -> Optional[str]:
    processes = m.params["workers"] + 1
    if finger["nproc"] < processes:
        return f"nproc {finger['nproc']} < {processes} processes: the pool cannot run in parallel"
    return None


def _rss_read(finger: dict, m: Measurement) -> Optional[str]:
    if not m.params["rss_before_kb"]:
        return "no RSS reading: /proc/self/status is unavailable"
    return None


BOUNDS: tuple[Bound, ...] = (
    # hot path: flat TJ-SP against the seed tuples and against KJ-VC
    Bound("hotpath.join_heavy_speedup", "hotpath.join-heavy.speedup", ">=", 2.0, 1.5),
    Bound("hotpath.kj_ratio.c", "hotpath.join-heavy.kj_ratio", "<=", 1.1, 1.1, _kernel("c")),
    Bound("hotpath.kj_ratio.py", "hotpath.join-heavy.kj_ratio", "<=", 1.1, 1.4, _kernel("py")),
    Bound("hotpath.join_heavy_never_loses", "hotpath.join-heavy.speedup", ">", 0.7, None),
    Bound("hotpath.fork_heavy_never_loses", "hotpath.fork-heavy.speedup", ">", 0.7, None),
    Bound("hotpath.deep_tree_never_loses", "hotpath.deep-tree.speedup", ">", 0.7, None),
    Bound("hotpath.wide_tree_never_loses", "hotpath.wide-tree.speedup", ">", 0.7, None),
    Bound("hotpath.fork_heavy_speedup", "hotpath.fork-heavy.speedup", ">", 1.1, None),
    Bound("hotpath.wall", "hotpath.wall_s", "<", 60.0, 10.0),
    # runtime: unwind, end-to-end overhead, journal
    Bound("runtime.unwind", "runtime.unwind_ms", "<", 50.0, None),
    Bound("runtime.tjsp_overhead", "runtime.TJ-SP.geomean", "<=", 2.0, 2.0),
    Bound("runtime.journal", "runtime.journal_factor", "<=", 1.25, 1.25),
    Bound("runtime.join_chain_wall", "runtime.join_chain.wall_s", "<", 10.0, 10.0),
    Bound("runtime.wall", "runtime.wall_s", "<", 120.0, None),
    # telemetry, worst shape
    Bound("telemetry.metrics", "telemetry.metrics_factor", "<=", 1.05, 1.05),
    Bound("telemetry.full", "telemetry.full_factor", "<=", 1.25, 1.25),
    Bound("telemetry.wall", "telemetry.wall_s", "<", 120.0, 30.0),
    # sidecar audit soak: audits the sidecar applied, the client's degraded flag
    Bound("service.joins", "service.joins", ">=", 100_000, 100_000),
    Bound("service.degradations", "service.degradations", "<=", 0, 0),
    Bound("service.rss_flat", "service.rss_growth", "<=", 1.25, 1.25, _rss_read),
    Bound("service.wall", "service.wall_s", "<", 120.0, None),
    # multi-process soak
    Bound("procs.divergences", "procs.divergences", "<=", 0, 0),
    Bound("procs.worker_deaths", "procs.worker_deaths", "<=", 0, 0),
    # local > cross  <=>  cross / (local + cross) < 0.5
    Bound("procs.local_majority", "procs.escalation_ratio", "<", 0.5, 0.5),
    Bound("procs.cross_joins", "procs.cross_joins", ">", 0, 0),
    Bound("procs.escalation", "procs.escalation_ratio", "<=", 0.2, 0.2),
    Bound("procs.degraded_joins", "procs.degraded_joins", "<=", 0, 0),
    Bound("procs.audit_mismatches", "procs.audit_mismatches", "<=", 0, 0),
    Bound("procs.tasks", "procs.tasks", ">=", 1_000_000, None),
    Bound("procs.workers", "procs.workers", ">=", 4, None),
    Bound("procs.speedup", "procs.speedup", ">=", 3.0, None, _parallel_pool),
    # distributed telemetry
    Bound("obs_dist.overhead", "obs_dist.factor", "<=", 1.25, 1.25),
    # prediction
    Bound("predict.sim_overhead", "predict.sim_overhead", "<=", 2.0, 2.0),
    Bound("predict.throughput", "predict.events_per_s", ">=", 200.0, 200.0),
)


def judge(records: list[Measurement], scale: str, finger: dict) -> list[dict]:
    """One row dict per bound: row, metric, op, limit, value, status, reason."""
    by_name = {m.name: m for m in records}
    rows = []
    for b in BOUNDS:
        limit = b.full if scale == "full" else b.smoke
        m = by_name.get(b.metric)
        value = None if m is None else m.value
        if limit is None:
            status, reason = NOT_ENFORCEABLE, "full scale only"
        elif m is None:
            status, reason = FAIL, "no record"
        elif b.when and (why := b.when(finger, m)):
            status, reason = NOT_ENFORCEABLE, why
        else:
            status = PASS if _OPS[b.op](value, limit) else FAIL
            reason = ""
        rows.append(
            {"row": b.row, "metric": b.metric, "op": b.op, "limit": limit,
             "value": value, "status": status, "reason": reason}
        )
    return rows
