"""Fleet metrics aggregation: labelled snapshots, exact merges, and the
process-level retired fold under worker churn.

The unit half exercises the snapshot algebra directly —
``label_snapshot`` / ``merge_snapshots`` / ``snapshot_to_prometheus``
including the dead-worker fold rule (retired accumulator + replacement
series with the same name must sum).  The integration half runs real
:class:`~repro.runtime.procs.ProcessRuntime` pools and asserts the
merged fleet totals equal per-worker ground truth exactly — both on a
clean run (final stats pushes drain before the collector exits) and
across a SIGKILL of an *idle* worker, where the retired fold is the only
thing keeping the dead worker's counts in the totals.

Dispatched bodies are module-level (they cross a process boundary).
"""

from __future__ import annotations

import os
import signal
import time

from repro import obs
from repro.obs.metrics import (
    MetricsRegistry,
    label_snapshot,
    merge_snapshots,
    snapshot_to_prometheus,
)
from repro.runtime import ProcessRuntime


# ----------------------------------------------------------------------
# snapshot algebra
# ----------------------------------------------------------------------
def _worker_snap(forks: int, tasks: int) -> dict:
    reg = MetricsRegistry()
    c = reg.counter("repro_test_forks_total")
    for _ in range(forks):
        c.inc()
    h = reg.histogram("repro_test_ns")
    for _ in range(tasks):
        h.observe(500)
    reg.add_source("runtime", lambda: {"tasks_started": tasks})
    return reg.snapshot()


class TestSnapshotAlgebra:
    def test_label_snapshot_stamps_every_series_kind(self):
        snap = label_snapshot(_worker_snap(3, 2), worker="7")
        assert snap["counters"]['repro_test_forks_total{worker="7"}'] == 3
        assert snap["histograms"]['repro_test_ns{worker="7"}']["count"] == 2
        assert snap["sources"]['runtime{worker="7"}'] == {"tasks_started": 2}

    def test_labels_merge_with_existing_ones(self):
        reg = MetricsRegistry()
        reg.counter("checks_total", labels={"policy": "TJ-SP"}).inc()
        snap = label_snapshot(reg.snapshot(), worker="1")
        (name,) = snap["counters"]
        assert 'policy="TJ-SP"' in name and 'worker="1"' in name

    def test_merge_is_exact_across_distinct_workers(self):
        parts = [
            label_snapshot(_worker_snap(5, 4), worker="0"),
            label_snapshot(_worker_snap(7, 2), worker="1"),
        ]
        merged = merge_snapshots(parts)
        assert merged["counters"]['repro_test_forks_total{worker="0"}'] == 5
        assert merged["counters"]['repro_test_forks_total{worker="1"}'] == 7
        total = sum(
            h["count"] for n, h in merged["histograms"].items() if "repro_test_ns" in n
        )
        assert total == 6

    def test_retired_fold_sums_same_name_series(self):
        # The procs fold rule in miniature: a dead worker's last snapshot
        # (the retired accumulator) and its replacement push the same
        # worker="0" series names; the merge must sum them, not replace.
        retired = label_snapshot(_worker_snap(5, 4), worker="0")
        replacement = label_snapshot(_worker_snap(3, 2), worker="0")
        merged = merge_snapshots([retired, replacement])
        assert merged["counters"]['repro_test_forks_total{worker="0"}'] == 8
        assert merged["histograms"]['repro_test_ns{worker="0"}']["count"] == 6
        assert merged["sources"]['runtime{worker="0"}']["tasks_started"] == 6

    def test_merged_snapshot_renders_as_prometheus(self):
        merged = merge_snapshots(
            [
                label_snapshot(_worker_snap(2, 1), worker="0"),
                label_snapshot(_worker_snap(4, 1), process="parent"),
            ]
        )
        text = snapshot_to_prometheus(merged)
        assert 'repro_test_forks_total{worker="0"} 2' in text
        assert 'repro_test_forks_total{process="parent"} 4' in text
        # one TYPE line per family, not per labelled series
        assert text.count("# TYPE repro_test_forks_total counter") == 1


# ----------------------------------------------------------------------
# dispatched bodies
# ----------------------------------------------------------------------
def square(x):
    return x * x


def subtree(rt, base, fanout):
    futs = [rt.fork(square, base + i) for i in range(fanout)]
    return sum(rt.join_batch(futs))


def _worker_tasks_started(fleet: dict) -> int:
    return sum(
        fields.get("tasks_started", 0)
        for name, fields in fleet.get("sources", {}).items()
        if name.startswith("runtime{") and 'worker="' in name
    )


def _worker_fork_count(fleet: dict) -> int:
    return sum(
        h["count"]
        for name, h in fleet.get("histograms", {}).items()
        if name.startswith("repro_runtime_fork_ns{") and 'worker="' in name
    )


# ----------------------------------------------------------------------
# real fleets
# ----------------------------------------------------------------------
class TestFleetExactness:
    def test_merged_totals_match_ground_truth_on_a_clean_run(self):
        fanout, dispatches = 5, 8
        with obs.enabled():
            rt = ProcessRuntime(workers=2, seg0=64, stripe=16)

            def root():
                futs = [rt.fork(subtree, 10 * t, fanout) for t in range(dispatches)]
                return rt.join_batch(futs)

            totals = rt.run(root)
            fleet = rt.fleet_metrics()
        assert totals == [
            sum((10 * t + i) ** 2 for i in range(fanout)) for t in range(dispatches)
        ]
        # Ground truth: each dispatched subtree forks exactly fanout
        # leaves through its worker's engine (the dispatched body itself
        # rides the dispatch path, not an engine fork).  The workers'
        # final pushes drain before the collector exits, so the merged
        # fleet totals are exact, not approximate.
        assert _worker_tasks_started(fleet) == dispatches * fanout
        assert _worker_fork_count(fleet) == dispatches * fanout
        # each worker's engine is a pool that counts its work-first joins
        engines = [f for n, f in fleet["sources"].items() if n.startswith("runtime{worker=")]
        assert engines and all("inline_joins" in f for f in engines)
        # parent series are labelled too
        assert 'runtime{process="parent"}' in fleet["sources"]
        # One store per fact: one tasks count (parent completions plus
        # worker tasks), in the runtime source, and no repro_procs_* series.
        assert "repro_procs_" not in str(fleet["counters"]) + str(fleet["gauges"])
        tasks = [f.get("procs_tasks_total") for f in fleet["sources"].values()]
        assert [t for t in tasks if t is not None] == [dispatches * (1 + fanout)]

    def test_totals_stay_exact_across_a_sigkilled_worker(self):
        """Kill an idle worker between two dispatch waves: its wave-1
        counts were pushed, so the retired fold must keep the merged
        totals exact — nothing lost, nothing double-counted."""
        fanout, wave = 5, 4
        with obs.enabled():
            rt = ProcessRuntime(workers=2, seg0=64, stripe=16)

            def root():
                futs = [rt.fork(subtree, 10 * t, fanout) for t in range(wave)]
                first = rt.join_batch(futs)
                # Wait for both workers' idle pushes to land the full
                # wave-1 ground truth in the parent's fleet view.
                deadline = time.monotonic() + 15.0
                while _worker_tasks_started(rt.fleet_metrics()) < wave * fanout:
                    assert time.monotonic() < deadline, "wave-1 pushes never landed"
                    time.sleep(0.05)
                victim = rt._workers[0].proc
                os.kill(victim.pid, signal.SIGKILL)
                while rt.worker_deaths == 0:
                    assert time.monotonic() < deadline, "death never detected"
                    time.sleep(0.05)
                futs = [rt.fork(subtree, 1000 * t, fanout) for t in range(wave)]
                return first, rt.join_batch(futs)

            first, second = rt.run(root)
            fleet = rt.fleet_metrics()
            deaths = rt.worker_deaths
            redispatched = rt.tasks_redispatched
        assert first == [
            sum((10 * t + i) ** 2 for i in range(fanout)) for t in range(wave)
        ]
        assert second == [
            sum((1000 * t + i) ** 2 for i in range(fanout)) for t in range(wave)
        ]
        assert deaths == 1
        assert redispatched == 0  # the victim was idle — nothing in flight
        # Exactness under churn: wave 1 (both workers, pushed before the
        # kill) + wave 2 (survivor only, pushed at graceful exit).
        assert _worker_tasks_started(fleet) == 2 * wave * fanout
        assert _worker_fork_count(fleet) == 2 * wave * fanout
        # The dead worker's series survive only through the retired fold.
        assert any('worker="0"' in name for name in fleet["sources"])
        killed_share = fleet["sources"]['runtime{worker="0"}']["tasks_started"]
        assert killed_share > 0
