"""Export task-lifecycle traces to Chrome trace / Perfetto JSON.

Three pieces:

* :func:`write_chrome_trace` — serialise a live
  :class:`~repro.obs.tracing.Tracer` (or an already-built trace dict) to
  a ``.json`` file that ``ui.perfetto.dev`` and ``chrome://tracing``
  open directly.
* :func:`journal_to_trace` — reconstruct a timeline from a
  crash-consistent :mod:`~repro.tools.journal` file: every journalled
  task becomes its own track (named by its stable journal id ``tN`` —
  the shared-id bridge between journal records and tracer spans), with
  block/unblock pairs rendered as duration spans and everything else as
  instants.  Works post-mortem, on journals from runs that never had a
  tracer attached.
* :func:`validate_chrome_trace` — a structural validator (required keys,
  well-formed events, per-thread duration nesting) used by the
  end-to-end tests and the ``obs-smoke`` CI job, so "the trace loads in
  Perfetto" is checked mechanically, not by eyeball.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .journal import read_trace_journal

__all__ = ["write_chrome_trace", "journal_to_trace", "validate_chrome_trace"]

#: journal tracks that do not belong to any task (header, quarantines)
_CONTROL_TID = 0


def write_chrome_trace(source: Union[dict, object], path: str) -> dict:
    """Write *source* as Chrome trace JSON; returns the written dict.

    *source* is either a trace dict (``{"traceEvents": [...]}``) or any
    object with a ``to_chrome_trace()`` method — a
    :class:`~repro.obs.tracing.Tracer` or a
    :class:`~repro.obs.Telemetry` session with tracing on.
    """
    if isinstance(source, dict):
        doc = source
    else:
        to_trace = getattr(source, "to_chrome_trace", None)
        if to_trace is None:
            raise TypeError(f"cannot export {type(source).__name__} as a trace")
        doc = to_trace()
        if doc is None:
            raise ValueError("tracing is disabled on this telemetry session")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return doc


# ----------------------------------------------------------------------
# journal -> trace
# ----------------------------------------------------------------------
def _task_tid(name: str) -> int:
    """The synthetic track id of journal task ``tN`` (control track is 0)."""
    try:
        return int(name[1:]) + 1
    except (ValueError, IndexError):
        return _CONTROL_TID


def journal_to_trace(path: str, *, pid: int = 1, predictions=None) -> dict:
    """Render a trace journal as a Chrome trace dict, one track per task
    (a sidecar journal raises :class:`~repro.errors.JournalError`).

    Timestamps come from the journal's optional ``ts`` field (ns since
    journal open, written under ``timestamps=True``); journals without
    timestamps fall back to the dense ``seq`` number as a logical clock
    (1 µs per record), which preserves ordering and nesting even though
    durations are synthetic.  ``complete`` records (the PR 9 completion
    stream) land as completion instants on the finishing task's track.

    *predictions* optionally overlays ``repro predict`` results: a
    :class:`~repro.predict.PredictionReport`, a list of
    :class:`~repro.predict.PredictedDeadlock`, or plain cycles (task
    name tuples).  Each predicted cycle draws one ``predicted_deadlock``
    instant on every member task's track, at the journal's end — the
    cycle is counterfactual, not an event the recorded run reached.
    """
    result = read_trace_journal(path, "trace export")
    records = result.records

    def ts_us(record: dict) -> float:
        ts = record.get("ts")
        return ts / 1000.0 if ts is not None else float(record["seq"])

    end_us = max((ts_us(r) for r in records), default=0.0) + 1.0
    events: list[dict] = []
    tids: dict[int, str] = {_CONTROL_TID: "journal"}
    #: open block edges: (waiter, joinee) -> start ts (µs)
    open_blocks: dict[tuple, float] = {}

    def instant(name: str, tid: int, ts: float, args: dict) -> None:
        events.append(
            {
                "ph": "i",
                "name": name,
                "cat": "journal",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "s": "t",
                "args": args,
            }
        )

    for record in records:
        kind = record["kind"]
        ts = ts_us(record)
        args = {k: v for k, v in record.items() if k not in ("kind", "seq", "ts")}
        if kind == "block":
            open_blocks[(record["waiter"], record["joinee"])] = ts
            continue
        if kind == "unblock":
            key = (record["waiter"], record["joinee"])
            start = open_blocks.pop(key, None)
            if start is None:
                continue  # unblock without a block: ignore, reader validated seqs
            tid = _task_tid(record["waiter"])
            tids.setdefault(tid, f"task {record['waiter']}")
            events.append(
                {
                    "ph": "X",
                    "name": f"blocked on {record['joinee']}",
                    "cat": "join",
                    "ts": start,
                    "dur": max(0.001, ts - start),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
            continue
        # instants, placed on the track of the acting task
        task = record.get("waiter") or record.get("task") or record.get("child")
        if kind == "fork":
            task = record.get("parent")
        tid = _task_tid(task) if task else _CONTROL_TID
        if task:
            tids.setdefault(tid, f"task {task}")
        if kind == "complete":
            # PR 9 completion stream: a distinct lifecycle instant that
            # visibly ends the task's track (``ok`` rides in args, so a
            # failed completion is distinguishable in the UI).
            events.append(
                {
                    "ph": "i",
                    "name": "complete" if record.get("ok", True) else "failed",
                    "cat": "lifecycle",
                    "ts": ts,
                    "pid": pid,
                    "tid": tid,
                    "s": "t",
                    "args": args,
                }
            )
            continue
        instant(kind, tid, ts, args)

    # joins still blocked at death: open-ended spans to the journal's end
    for (waiter, joinee), start in sorted(open_blocks.items()):
        tid = _task_tid(waiter)
        tids.setdefault(tid, f"task {waiter}")
        events.append(
            {
                "ph": "X",
                "name": f"blocked on {joinee} (unresolved)",
                "cat": "join",
                "ts": start,
                "dur": max(0.001, end_us - start),
                "pid": pid,
                "tid": tid,
                "args": {"waiter": waiter, "joinee": joinee, "unresolved": True},
            }
        )

    for cycle in _prediction_cycles(predictions):
        for task in cycle:
            tid = _task_tid(task)
            tids.setdefault(tid, f"task {task}")
            instant(
                "predicted_deadlock",
                tid,
                end_us,
                {"cycle": " -> ".join((*cycle, cycle[0])), "counterfactual": True},
            )

    meta = [
        {
            "ph": "M",
            "name": "thread_name",
            "pid": pid,
            "tid": tid,
            "args": {"name": name},
        }
        for tid, name in sorted(tids.items())
    ]
    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def _prediction_cycles(predictions) -> list[tuple]:
    """Normalise a predictions overlay to a list of task-name cycles.

    Accepts a :class:`~repro.predict.PredictionReport`, an iterable of
    :class:`~repro.predict.PredictedDeadlock`, or plain cycles already
    as task-name sequences; None means no overlay.
    """
    if predictions is None:
        return []
    preds = getattr(predictions, "predictions", predictions)
    cycles = []
    for item in preds:
        cycle = getattr(item, "cycle", item)
        cycles.append(tuple(cycle))
    return cycles


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def validate_chrome_trace(doc: dict) -> list[str]:
    """Structural problems in a Chrome trace dict (empty list = valid).

    Checks what Perfetto's importer actually cares about: a
    ``traceEvents`` list of well-formed events (``ph``/``name``/``pid``/
    ``tid``, numeric ``ts`` on non-metadata events, non-negative ``dur``
    on complete events, an ``id`` on flow events with every flow-finish
    paired to a flow-start), pid/tid consistency (integer ids, no mixed
    types within a track), and — the property the span instrumentation
    promises — that each thread's ``"X"`` events nest by duration
    containment, never partially overlapping.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"trace must be a dict, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list traceEvents"]
    per_thread: dict[tuple, list[tuple]] = {}
    flow_starts: set = set()
    flow_finishes: list[tuple] = []
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        ph = ev.get("ph")
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        # pid/tid consistency: integer ids throughout — Perfetto merges
        # tracks by identity, and a tid that is 7 in one event and "7"
        # in another silently splits one thread into two tracks.
        pid, tid = ev.get("pid"), ev.get("tid")
        for label, value in (("pid", pid), ("tid", tid)):
            if value is not None and not isinstance(value, int):
                problems.append(
                    f"event {i}: non-integer {label} {value!r}"
                )
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: X event with bad dur {dur!r}")
                continue
            per_thread.setdefault((pid, tid), []).append(
                (ts, dur, ev.get("name"), i)
            )
        elif ph == "i":
            if ev.get("s") not in ("t", "p", "g"):
                problems.append(f"event {i}: instant without scope 's'")
        elif ph in ("s", "f"):
            # cross-process flow endpoints: an id is what pairs them;
            # a duration here would be malformed (flows are points).
            fid = ev.get("id")
            if fid in (None, ""):
                problems.append(f"event {i}: flow {ph!r} without id")
                continue
            if "dur" in ev:
                problems.append(f"event {i}: flow {ph!r} with dur")
            if ph == "s":
                flow_starts.add(fid)
            else:
                flow_finishes.append((fid, i))
    # every flow-finish must pair with a start somewhere in the trace —
    # an unpaired "f" is an arrow from nowhere (a dangling "s" is fine:
    # the receiving side may have dropped its buffer under pressure).
    for fid, i in flow_finishes:
        if fid not in flow_starts:
            problems.append(f"event {i}: flow finish id {fid!r} has no start")
    # duration nesting per thread: sorted by (start, -dur), spans must
    # form a stack — each span either fits inside the open span or
    # begins after it ends.
    for (pid, tid), spans in per_thread.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack: list[tuple] = []
        for ts, dur, name, i in spans:
            end = ts + dur
            while stack and ts >= stack[-1][1] - 1e-6:
                stack.pop()
            if stack and end > stack[-1][1] + 1e-6:
                problems.append(
                    f"event {i} ({name!r}): span [{ts}, {end}] partially "
                    f"overlaps enclosing span on tid {tid}"
                )
                continue
            stack.append((ts, end))
    return problems
