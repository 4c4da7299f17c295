"""Cross-process trace propagation on a real 4-worker + sidecar fleet.

One module-scoped run under full telemetry: the parent dispatches eight
subtrees across four workers, every cross-process join escalates to a
real sidecar subprocess, and at shutdown the workers' rings and the
sidecar's stats reply fold into the parent's tracer.  The tests then
assert the tentpole claims on the merged document:

* every span in every process carries the *same* trace id — the one the
  parent's tracer minted — because the ``(trace_id, span_id)`` carrier
  rode each dispatch frame and each sidecar check frame;
* dispatch flow starts (parent) pair with flow finishes (workers), and
  escalation flow starts (workers) pair with finishes (sidecar), so
  Perfetto draws arrows across process tracks;
* the merged document passes :func:`validate_chrome_trace` with zero
  problems — integer pids/tids, flows well-formed, durations nested.

Dispatched bodies are module-level (they cross a process boundary).
"""

from __future__ import annotations

import os

import pytest

from repro import obs
from repro.runtime import ProcessRuntime
from repro.tools.trace_export import validate_chrome_trace

WORKERS = 4
DISPATCHES = 8
FANOUT = 4


def square(x):
    return x * x


def subtree(rt, base, fanout):
    futs = [rt.fork(square, base + i) for i in range(fanout)]
    return sum(rt.join_batch(futs))


@pytest.fixture(scope="module")
def traced_fleet():
    with obs.enabled() as session:
        rt = ProcessRuntime(workers=WORKERS, sidecar="auto", seg0=64, stripe=16)

        def root():
            futs = [rt.fork(subtree, 10 * t, FANOUT) for t in range(DISPATCHES)]
            return rt.join_batch(futs)

        totals = rt.run(root)
        doc = session.to_chrome_trace()
        trace_id = session.tracer.trace_id
        worker_pids = {w.pid for w in rt._workers}
        deaths = rt.worker_deaths
    return {
        "doc": doc,
        "trace_id": trace_id,
        "worker_pids": worker_pids,
        "deaths": deaths,
        "totals": totals,
    }


def _events(fleet):
    return fleet["doc"]["traceEvents"]


def test_the_run_itself_was_correct(traced_fleet):
    assert traced_fleet["totals"] == [
        sum((10 * t + i) ** 2 for i in range(FANOUT)) for t in range(DISPATCHES)
    ]
    assert traced_fleet["deaths"] == 0


def test_merged_document_validates_clean(traced_fleet):
    assert validate_chrome_trace(traced_fleet["doc"]) == []


def test_every_process_contributed_a_track(traced_fleet):
    pids = {e["pid"] for e in _events(traced_fleet) if "pid" in e}
    # parent + all four workers (round-robin gives each two dispatches)
    # + the sidecar's absorbed ring
    assert os.getpid() in pids
    assert traced_fleet["worker_pids"] <= pids
    assert len(pids) >= WORKERS + 2


def test_one_trace_id_spans_every_process(traced_fleet):
    trace_id = traced_fleet["trace_id"]
    by_pid: dict[int, set] = {}
    for e in _events(traced_fleet):
        trace = (e.get("args") or {}).get("trace")
        if e.get("ph") == "X" and trace:
            by_pid.setdefault(e["pid"], set()).add(trace)
    # spans exist in the parent, the workers, and the sidecar — and all
    # of them carry the parent's trace id, nothing else
    assert set(by_pid) == {
        e["pid"] for e in _events(traced_fleet) if e.get("ph") == "X"
    }
    assert len(by_pid) >= WORKERS + 2
    for pid, traces in by_pid.items():
        assert traces == {trace_id}, f"pid {pid} carries foreign trace ids"


def test_dispatch_and_escalation_flows_pair_across_processes(traced_fleet):
    events = _events(traced_fleet)
    parent = os.getpid()
    workers = traced_fleet["worker_pids"]
    starts = [e for e in events if e.get("ph") == "s"]
    finishes = [e for e in events if e.get("ph") == "f"]
    # every finish pairs with a start of the same flow id from a
    # *different* process (span ids are per-process counters, so a flow
    # id may also collide with an unrelated same-numbered start locally)
    start_pids = {}
    for e in starts:
        start_pids.setdefault(e["id"], set()).add(e["pid"])
    for e in finishes:
        assert e["id"] in start_pids
        assert start_pids[e["id"]] - {e["pid"]}, (
            f"flow {e['id']} finishes on pid {e['pid']} with no "
            f"cross-process start"
        )
    # dispatch flows: parent-side starts adopted by worker-side finishes
    dispatch_f = [e for e in finishes if e["pid"] in workers]
    assert len(dispatch_f) >= DISPATCHES
    assert any(e["pid"] == parent for e in starts)
    # escalation flows: worker-side starts finished on the sidecar track
    sidecar_f = [
        e for e in finishes if e["pid"] not in workers and e["pid"] != parent
    ]
    # one per escalated join_batch (each subtree joins its leaves in
    # one batched check)
    assert len(sidecar_f) >= DISPATCHES


def test_sidecar_join_checks_ride_the_parent_trace(traced_fleet):
    parent = os.getpid()
    workers = traced_fleet["worker_pids"]
    sidecar_spans = [
        e
        for e in _events(traced_fleet)
        if e.get("ph") == "X" and e["pid"] not in workers and e["pid"] != parent
    ]
    assert sidecar_spans, "the sidecar's span ring never reached the parent"
    named = {e["name"] for e in sidecar_spans}
    assert any("join" in n or "check" in n for n in named), named
