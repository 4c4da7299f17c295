"""A terminal ``top`` view over a live telemetry snapshot.

Renders, from one :class:`~repro.obs.Telemetry` session (or a saved
metrics-snapshot JSON), the state a human asks about first when a run
looks stuck or slow:

* the blocked-join table — who waits on whom, for how long, and how many
  OS-level wakeups the wait has burned;
* per-policy join-check latency histograms (and the other ns histograms:
  fork, blocked-wait, Armus cycle check, journal flush) as ASCII bars;
* the unified counter surface — verifier/armus/runtime/journal
  sources (quarantines are ``verifier.policy_faults``, retries
  ``runtime.tasks_retried``) plus the wakeup and blocked-wait counters.

With the PR 10 distributed plane it also renders *fleet* state: the
cross-process blocked-join table (plain dicts shipped by worker stats
pushes), the merged labelled registry, and the live screen
``repro top --live`` draws from an introspection ``stats`` snapshot.
``repro predict`` results render as a predicted-cycle table.

Pure rendering: every function takes data and returns a string, so the
CLI can re-render on a cadence (live mode) or once (post-mortem mode)
and tests can assert on the output without a terminal.
"""

from __future__ import annotations

import time
from typing import Optional

__all__ = [
    "render_top",
    "render_snapshot",
    "render_blocked_joins",
    "render_fleet_blocked",
    "render_predictions",
    "render_live_stats",
    "format_ns",
]

_BAR_WIDTH = 40


def format_ns(ns: float) -> str:
    """Human-readable duration from nanoseconds."""
    if ns < 1_000:
        return f"{ns:.0f}ns"
    if ns < 1_000_000:
        return f"{ns / 1_000:.1f}us"
    if ns < 1_000_000_000:
        return f"{ns / 1_000_000:.1f}ms"
    return f"{ns / 1_000_000_000:.2f}s"


def _render_histogram(name: str, snap: dict) -> list[str]:
    """ASCII bars for one histogram snapshot (empty rows trimmed)."""
    counts = snap["counts"]
    bounds = snap["buckets"]
    total = snap["count"]
    lines = [
        f"  {name}  count={total}  "
        f"mean={format_ns(snap['sum'] / total) if total else '-'}"
    ]
    nonzero = [i for i, c in enumerate(counts) if c]
    if not nonzero:
        return lines
    peak = max(counts)
    for i in range(nonzero[0], nonzero[-1] + 1):
        label = f"<= {format_ns(bounds[i])}" if i < len(bounds) else f" > {format_ns(bounds[-1])}"
        bar = "#" * max(1, round(counts[i] / peak * _BAR_WIDTH)) if counts[i] else ""
        lines.append(f"    {label:>10} |{bar:<{_BAR_WIDTH}}| {counts[i]}")
    return lines


def render_snapshot(snap: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as a top screen."""
    out: list[str] = []
    sources = snap.get("sources", {})
    if sources:
        out.append("sources")
        for prefix in sorted(sources):
            fields = sources[prefix]
            body = "  ".join(f"{k}={fields[k]}" for k in sorted(fields))
            out.append(f"  {prefix:<12} {body}")
    counters = snap.get("counters", {})
    if counters:
        out.append("counters")
        for name in sorted(counters):
            out.append(f"  {name:<40} {counters[name]}")
    gauges = snap.get("gauges", {})
    if gauges:
        out.append("gauges")
        for name in sorted(gauges):
            out.append(f"  {name:<40} {gauges[name]}")
    histograms = snap.get("histograms", {})
    live = {n: h for n, h in sorted(histograms.items()) if h["count"]}
    if live:
        out.append("latency histograms (ns buckets)")
        for name, h in live.items():
            out.extend(_render_histogram(name, h))
    return "\n".join(out) if out else "(no telemetry data)"


def render_blocked_joins(blocked: list, now: Optional[float] = None) -> str:
    """The blocked-join table: joiner, joinee, wait age, wakeups."""
    if not blocked:
        return "blocked joins: none"
    now = time.monotonic() if now is None else now
    lines = ["blocked joins"]
    lines.append(f"  {'joiner':<20} {'joinee':<20} {'age':>9} {'wakeups':>8}")
    for record in sorted(blocked, key=lambda r: r.since):
        age = max(0.0, now - record.since)
        lines.append(
            f"  {record.joiner.name:<20} {record.joinee.name:<20} "
            f"{age:>8.2f}s {record.wakeups:>8}"
        )
    return "\n".join(lines)


def render_fleet_blocked(blocked: list) -> str:
    """The cross-process blocked-join table.

    *blocked* is the plain-dict form
    :meth:`~repro.runtime.procs.ProcessRuntime.fleet_blocked_joins`
    ships (``process``/``joiner``/``joinee``/``age``/``wakeups``) —
    worker rows are as-of that worker's latest telemetry push.
    """
    if not blocked:
        return "blocked joins: none"
    lines = ["blocked joins"]
    lines.append(
        f"  {'process':<12} {'joiner':<20} {'joinee':<20} {'age':>9} {'wakeups':>8}"
    )
    for rec in sorted(blocked, key=lambda r: -float(r.get("age", 0.0))):
        lines.append(
            f"  {str(rec.get('process', '?')):<12} "
            f"{str(rec.get('joiner', '?')):<20} "
            f"{str(rec.get('joinee', '?')):<20} "
            f"{float(rec.get('age', 0.0)):>8.2f}s {int(rec.get('wakeups', 0)):>8}"
        )
    return "\n".join(lines)


def render_predictions(report) -> str:
    """The ``repro predict`` results as a predicted-cycle table.

    *report* is a :class:`~repro.predict.PredictionReport` (or anything
    shaped like one: ``predictions`` with ``cycle``/``verdicts``).
    """
    skipped = getattr(report, "skipped", None)
    if skipped is not None:
        return f"predicted deadlocks: skipped ({skipped})"
    predictions = list(getattr(report, "predictions", report) or ())
    if not predictions:
        return "predicted deadlocks: none"
    lines = [f"predicted deadlocks ({len(predictions)})"]
    lines.append(f"  {'cycle':<44} {'policies':<30}")
    for pred in predictions:
        cycle = tuple(getattr(pred, "cycle", pred))
        arrow = " -> ".join((*cycle, cycle[0]))
        verdicts = getattr(pred, "verdicts", {}) or {}
        body = "  ".join(f"{p}={verdicts[p]}" for p in sorted(verdicts)) or "-"
        lines.append(f"  {arrow:<44} {body:<30}")
    return "\n".join(lines)


def render_live_stats(stats: dict) -> str:
    """One ``repro top --live`` screen from an introspection snapshot.

    *stats* is a wire ``stats_reply`` payload — either a
    :class:`~repro.runtime.procs.ProcessRuntime` introspection snapshot
    (``kind: "procs"``) or a ``repro serve`` server snapshot; the two
    shapes share the merged-registry and blocked-table sections where
    they have them.
    """
    parts: list[str] = []
    if stats.get("kind") == "procs":
        workers = stats.get("workers", [])
        alive = sum(1 for w in workers if w.get("alive"))
        header = (
            f"repro top — run {stats.get('run_id', '?')} — "
            f"workers {alive}/{len(workers)} alive"
        )
        if stats.get("sidecar"):
            header += f" — sidecar {stats['sidecar']}"
        parts.append(header)
        joins = stats.get("join_stats") or {}
        if joins:
            parts.append(
                "joins: "
                f"local={joins.get('local_joins', 0)} "
                f"cross={joins.get('cross_joins', 0)} "
                f"degraded={joins.get('degraded_joins', 0)} "
                f"escalation={joins.get('escalation_ratio', 0.0):.3f}"
            )
        parts.append(render_fleet_blocked(stats.get("blocked") or []))
        merged = stats.get("metrics")
        if merged:
            parts.append(render_snapshot(merged))
    else:
        header = (
            f"repro top — sidecar — sessions {stats.get('sessions', '?')} "
            f"accepted {stats.get('accepted', '?')}"
        )
        parts.append(header)
        merged = stats.get("metrics")
        if merged:
            parts.append(render_snapshot(merged))
        per_session = stats.get("per_session") or {}
        if per_session:
            lines = ["sessions"]
            for sid in sorted(per_session):
                fields = per_session[sid]
                body = "  ".join(
                    f"{k}={fields[k]}" for k in sorted(fields) if not isinstance(fields[k], (dict, list))
                )
                lines.append(f"  {sid:<24} {body}")
            parts.append("\n".join(lines))
    return "\n\n".join(parts)


def render_top(telemetry) -> str:
    """The full screen for a live :class:`~repro.obs.Telemetry` session."""
    uptime = time.time() - telemetry.started_at
    header = f"repro top — uptime {uptime:.1f}s"
    tracer = telemetry.tracer
    if tracer is not None:
        header += f" — trace events {len(tracer)}"
        if tracer.dropped_events:
            header += f" (dropped {tracer.dropped_events})"
    parts = [
        header,
        render_blocked_joins(telemetry.blocked_joins()),
        render_snapshot(telemetry.snapshot()),
    ]
    return "\n\n".join(parts)
