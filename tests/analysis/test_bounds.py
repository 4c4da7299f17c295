"""The bound table: every row, every status, both scales."""

import os

import pytest

from repro.analysis import suites
from repro.analysis.bounds import BOUNDS, FAIL, NOT_ENFORCEABLE, PASS, judge
from repro.analysis.record import Measurement, fingerprint

FINGER = {"nproc": 64, "tj_backend": "c"}

#: row -> (metric, comparator, full limit, smoke limit or None, record params)
EXPECTED = {
    "hotpath.join_heavy_speedup": ("hotpath.join-heavy.speedup", ">=", 2.0, 1.5, {}),
    "hotpath.kj_ratio.c": ("hotpath.join-heavy.kj_ratio", "<=", 1.1, 1.1, {"backend": "c"}),
    "hotpath.kj_ratio.py": ("hotpath.join-heavy.kj_ratio", "<=", 1.1, 1.4, {"backend": "py"}),
    "hotpath.join_heavy_never_loses": ("hotpath.join-heavy.speedup", ">", 0.7, None, {}),
    "hotpath.fork_heavy_never_loses": ("hotpath.fork-heavy.speedup", ">", 0.7, None, {}),
    "hotpath.deep_tree_never_loses": ("hotpath.deep-tree.speedup", ">", 0.7, None, {}),
    "hotpath.wide_tree_never_loses": ("hotpath.wide-tree.speedup", ">", 0.7, None, {}),
    "hotpath.fork_heavy_speedup": ("hotpath.fork-heavy.speedup", ">", 1.1, None, {}),
    "hotpath.wall": ("hotpath.wall_s", "<", 60.0, 10.0, {}),
    "runtime.unwind": ("runtime.unwind_ms", "<", 50.0, None, {}),
    "runtime.tjsp_overhead": ("runtime.TJ-SP.geomean", "<=", 2.0, 2.0, {}),
    "runtime.journal": ("runtime.journal_factor", "<=", 1.25, 1.25, {}),
    "runtime.join_chain_wall": ("runtime.join_chain.wall_s", "<", 10.0, 10.0, {}),
    "runtime.wall": ("runtime.wall_s", "<", 120.0, None, {}),
    "telemetry.metrics": ("telemetry.metrics_factor", "<=", 1.05, 1.05, {}),
    "telemetry.full": ("telemetry.full_factor", "<=", 1.25, 1.25, {}),
    "telemetry.wall": ("telemetry.wall_s", "<", 120.0, 30.0, {}),
    "service.joins": ("service.joins", ">=", 100_000, 100_000, {}),
    "service.degradations": ("service.degradations", "<=", 0, 0, {}),
    "service.reconciles": ("service.reconciles", "<=", 0, 0, {}),
    "service.rss_flat": ("service.rss_growth", "<=", 1.25, 1.25, {"rss_before_kb": 50_000}),
    "service.wall": ("service.wall_s", "<", 120.0, None, {}),
    "procs.divergences": ("procs.divergences", "<=", 0, 0, {}),
    "procs.worker_deaths": ("procs.worker_deaths", "<=", 0, 0, {}),
    "procs.local_majority": ("procs.escalation_ratio", "<", 0.5, 0.5, {}),
    "procs.cross_joins": ("procs.cross_joins", ">", 0, 0, {}),
    "procs.escalation": ("procs.escalation_ratio", "<=", 0.2, 0.2, {}),
    "procs.degraded_joins": ("procs.degraded_joins", "<=", 0, 0, {}),
    "procs.audit_mismatches": ("procs.audit_mismatches", "<=", 0, 0, {}),
    "procs.tasks": ("procs.tasks", ">=", 1_000_000, None, {}),
    "procs.workers": ("procs.workers", ">=", 4, None, {}),
    "procs.speedup": ("procs.speedup", ">=", 3.0, None, {"workers": 4}),
    "obs_dist.overhead": ("obs_dist.factor", "<=", 1.25, 1.25, {}),
    "predict.sim_overhead": ("predict.sim_overhead", "<=", 2.0, 2.0, {}),
    "predict.throughput": ("predict.events_per_s", ">=", 200.0, 200.0, {}),
}


def _row(name, value, scale="full", params=None, finger=FINGER):
    metric = next(b.metric for b in BOUNDS if b.row == name)
    (row,) = [r for r in judge([Measurement(metric, "x", value, params=params or {})], scale, finger)
              if r["row"] == name]
    return row


def _inside_and_outside(op, limit):
    eps = max(abs(limit), 1.0) * 1e-6
    return {
        "<=": (limit, limit + eps),
        "<": (limit - eps, limit),
        ">=": (limit, limit - eps),
        ">": (limit + eps, limit),
    }[op]


def test_the_table_holds_exactly_the_expected_rows():
    assert [b.row for b in BOUNDS] == list(EXPECTED)
    assert {b.row: (b.metric, b.op, b.full, b.smoke) for b in BOUNDS} == {
        row: spec[:4] for row, spec in EXPECTED.items()
    }


@pytest.mark.parametrize("name", list(EXPECTED))
def test_each_row_passes_inside_and_fails_outside_its_limit(name):
    metric, op, full, smoke, params = EXPECTED[name]
    for scale, limit in (("full", full), ("smoke", smoke)):
        if limit is None:
            assert _row(name, full, scale, params)["status"] == NOT_ENFORCEABLE
            continue
        inside, outside = _inside_and_outside(op, limit)
        assert _row(name, inside, scale, params)["status"] == PASS, (scale, inside)
        assert _row(name, outside, scale, params)["status"] == FAIL, (scale, outside)


def test_pass():
    row = _row("runtime.journal", 1.1)
    assert (row["status"], row["reason"], row["limit"]) == (PASS, "", 1.25)


def test_fail():
    row = _row("runtime.journal", 1.3, scale="smoke")
    assert row["status"] == FAIL and row["value"] == 1.3


def test_fail_on_a_missing_record():
    row = next(r for r in judge([], "full", FINGER) if r["row"] == "procs.divergences")
    assert (row["status"], row["reason"], row["value"]) == (FAIL, "no record", None)


def test_nan_fails():
    assert _row("obs_dist.overhead", float("nan"))["status"] == FAIL


def test_not_enforceable_at_a_scale_the_row_skips():
    row = _row("procs.tasks", 10, scale="smoke")
    assert (row["status"], row["reason"], row["limit"]) == (NOT_ENFORCEABLE, "full scale only", None)


def test_not_enforceable_on_the_other_kernel():
    row = _row("hotpath.kj_ratio.c", 9.0, params={"backend": "py"})
    assert row["status"] == NOT_ENFORCEABLE and "py kernel" in row["reason"]


def test_speedup_precondition_counts_the_cpus_the_process_may_use(monkeypatch):
    """Pinned to one CPU on an eight-CPU box, the pool cannot run in parallel."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    finger = fingerprint()
    assert finger["nproc"] == 1
    row = _row("procs.speedup", 4.0, params={"workers": 4}, finger=finger)
    assert row["status"] == NOT_ENFORCEABLE
    assert row["reason"].startswith("nproc 1 < 5 processes")
    assert _row("procs.speedup", 2.0, params={"workers": 4}, finger={"nproc": 5})["status"] == FAIL


def test_a_zero_rss_reading_is_not_enforceable(monkeypatch):
    monkeypatch.setattr(suites, "_read_rss_kb", lambda: 0)
    records = suites.service_suite("smoke")
    (row,) = [r for r in judge(records, "smoke", FINGER) if r["row"] == "service.rss_flat"]
    assert row["status"] == NOT_ENFORCEABLE
    assert "/proc/self/status" in row["reason"]
