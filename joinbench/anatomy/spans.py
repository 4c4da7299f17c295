"""In-memory spans, the forwarding policy proxy, attribution, Chrome export.

A span is named ``<layer>.<call>`` and placed by the benchmark around a
public call into that layer.  Spans nest per thread; a span's *self
time* is its duration minus the time its child spans on the same
thread cover.  Spans stay in memory and are written out once, at the
end of the traced run.

Two attributions turn spans into a per-layer self-time table that sums
to the traced wall time:

* single-threaded (verify-replay): the per-thread stack self times the
  recorder keeps as it goes, with the benchmark's root span as the
  unattributed remainder;
* threads under the GIL (paper-suite): self *CPU* time per layer
  (``time.thread_time_ns`` inside each span, summed over threads) — a
  span's wall time would also count the time its thread waited for the
  GIL while another thread ran — and the rest of the wall is the
  remainder;
* processes (procs-sidecar): :func:`sweep` over intervals: each instant
  of the wall goes to the innermost layer active in *any* process, and
  instants no layer covers are the remainder.
"""

from __future__ import annotations

import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns, thread_time_ns
from typing import Iterable, Optional, Sequence

from repro.core.policy import JoinPolicy


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


#: duration samples kept per span name per thread (sums stay exact past it)
SAMPLE_CAP = 250_000


def _samples() -> array:
    return array("q")


class _ThreadState:
    __slots__ = ("stack", "durations", "self_durations", "self_ns", "self_cpu_ns", "tid")

    def __init__(self, tid: int) -> None:
        self.stack: list = []
        self.durations: dict[str, array] = defaultdict(_samples)
        self.self_durations: dict[str, array] = defaultdict(_samples)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.self_cpu_ns: dict[str, int] = defaultdict(int)
        self.tid = tid


class SpanRecorder:
    """Nested spans per thread, aggregated as they close.

    Each thread writes only its own state (no lock on the hot path);
    :meth:`durations` and :meth:`self_ns` merge all threads on read.
    Up to *keep* closed spans are also stored as intervals for the
    Chrome trace.  With *cpu* each span also reads the thread's CPU
    clock, for :meth:`self_cpu_ns`.
    """

    def __init__(self, keep: int = 0, cpu: bool = False) -> None:
        self.keep = keep
        self.cpu = cpu
        self.intervals: list[tuple[str, int, int, int]] = []
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def begin(self, name: str) -> None:
        cpu = thread_time_ns() if self.cpu else 0
        self._state().stack.append([name, perf_counter_ns(), 0, cpu, 0])

    def end(self) -> None:
        t1 = perf_counter_ns()
        st = self._local.st
        name, t0, child, c0, child_cpu = st.stack.pop()
        if self.cpu:
            cpu = thread_time_ns() - c0
            st.self_cpu_ns[layer_of(name)] += cpu - child_cpu
            if st.stack:
                st.stack[-1][4] += cpu
        dur = t1 - t0
        samples = st.durations[name]
        if len(samples) < SAMPLE_CAP:
            samples.append(dur)
            st.self_durations[name].append(dur - child)
        st.self_ns[layer_of(name)] += dur - child
        if st.stack:
            st.stack[-1][2] += dur
        if len(self.intervals) < self.keep:
            self.intervals.append((name, st.tid, t0, t1))

    def _merged(self, attr: str, name: str) -> list[int]:
        with self._lock:
            states = list(self._states)
        out: list[int] = []
        for st in states:
            out.extend(getattr(st, attr).get(name, ()))
        return out

    def durations(self, name: str) -> list[int]:
        """Closed-span durations (ns) of *name*, all threads."""
        return self._merged("durations", name)

    def self_durations(self, name: str) -> list[int]:
        """Per-span self times (ns) of *name*: duration minus children."""
        return self._merged("self_durations", name)

    def _summed(self, attr: str) -> dict[str, int]:
        with self._lock:
            states = list(self._states)
        out: dict[str, int] = defaultdict(int)
        for st in states:
            for layer, ns in getattr(st, attr).items():
                out[layer] += ns
        return dict(out)

    def self_ns(self) -> dict[str, int]:
        """Per-layer self wall time, summed over threads."""
        return self._summed("self_ns")

    def self_cpu_ns(self) -> dict[str, int]:
        """Per-layer self CPU time, summed over threads (``cpu=True`` only)."""
        return self._summed("self_cpu_ns")

    def call(self, name: str, fn):
        """*fn* wrapped in a span called *name*."""
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return traced


class TracedPolicy(JoinPolicy):
    """A forwarding :class:`JoinPolicy` that spans every kernel call.

    Verdicts, handles and statistics all come from the wrapped policy;
    the proxy only adds ``core.*`` spans (and counts batch widths, for
    the per-join batch cost).  Runtimes accept it as ``policy=`` like
    any registered policy.
    """

    def __init__(self, inner: JoinPolicy, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.name = inner.name
        self.backend = inner.backend
        self.stable_permits = inner.stable_permits
        self.batch_joins = 0
        self.batch_calls = 0
        rec = recorder
        self.add_child = rec.call("core.add_child", inner.add_child)
        self.permits = rec.call("core.permits", inner.permits)
        self._permits_many = rec.call("core.permits_many", inner.permits_many)

    def add_child(self, parent):  # pragma: no cover - shadowed in __init__
        return self.inner.add_child(parent)

    def permits(self, joiner, joinee):  # pragma: no cover - shadowed in __init__
        return self.inner.permits(joiner, joinee)

    def permits_many(self, joiner, joinees):
        self.batch_calls += 1
        self.batch_joins += len(joinees)
        return self._permits_many(joiner, joinees)

    def on_join(self, joiner, joinee) -> None:
        self.inner.on_join(joiner, joinee)

    def space_units(self) -> int:
        return self.inner.space_units()

    def cache_stats(self) -> dict:
        return self.inner.cache_stats()


class TracedRuntime:
    """A runtime handle whose ``fork`` is spanned; everything else forwards.

    Handed to a program in place of its runtime (``rt.run(bench.run,
    TracedRuntime(rt, rec))``), so the program's own forks, from any
    thread, open ``runtime.fork`` spans.
    """

    def __init__(self, runtime, recorder: SpanRecorder) -> None:
        self._runtime = runtime
        self.fork = recorder.call("runtime.fork", runtime.fork)

    def __getattr__(self, name: str):
        return getattr(self._runtime, name)


# ----------------------------------------------------------------------
# attribution
# ----------------------------------------------------------------------
def sweep(
    intervals: Iterable[tuple[str, int, int]],
    t_start: int,
    t_end: int,
    priority: Sequence[str],
) -> tuple[dict[str, int], int]:
    """Partition ``[t_start, t_end)`` among layers; returns (ns per layer,
    remainder ns).  *intervals* are ``(layer, t0, t1)`` from any thread or
    process; an instant belongs to the first layer of *priority* active
    then, so the parts always sum to the window."""
    rank = {layer: i for i, layer in enumerate(priority)}
    points: list[tuple[int, int, int]] = []
    for layer, t0, t1 in intervals:
        r = rank.get(layer)
        if r is None:
            continue
        t0, t1 = max(t0, t_start), min(t1, t_end)
        if t1 > t0:
            points.append((t0, 1, r))
            points.append((t1, -1, r))
    points.sort()
    active = [0] * len(priority)
    out = {layer: 0 for layer in priority}
    covered = 0
    prev = t_start
    for t, delta, r in points:
        if t > prev:
            for i, n in enumerate(active):
                if n:
                    out[priority[i]] += t - prev
                    covered += t - prev
                    break
            prev = t
        active[r] += delta
    return out, (t_end - t_start) - covered


def self_time_table(wall_ns: int, layer_ns: dict[str, int], remainder_ns: int, extra: str = "") -> str:
    """A printable per-layer self-time table; rows sum to *wall_ns*."""
    lines = [f"{'layer':<14}{'self_s':>12}{'share':>9}"]
    for layer, ns in layer_ns.items():
        if ns:
            lines.append(f"{layer:<14}{ns / 1e9:>12.4f}{ns / wall_ns:>9.1%}")
    lines.append(f"{'unattributed':<14}{remainder_ns / 1e9:>12.4f}{remainder_ns / wall_ns:>9.1%}")
    total = sum(layer_ns.values()) + remainder_ns
    lines.append(f"{'traced wall':<14}{wall_ns / 1e9:>12.4f}{total / wall_ns:>9.1%}")
    if extra:
        lines.append(extra)
    return "\n".join(lines)


def chrome_trace(
    spans: Iterable[tuple[str, int, int, int, int]],
    t_base: int,
    process_names: Optional[dict[int, str]] = None,
) -> dict:
    """Spans ``(name, pid, tid, t0_ns, t1_ns)`` as a Chrome trace dict.

    Thread ids are renumbered densely per process (the validator wants
    integer ids; OS thread idents are merely large ones).
    """
    tids: dict[tuple[int, int], int] = {}
    events: list[dict] = []
    for name, pid, tid, t0, t1 in spans:
        key = (pid, tid)
        if key not in tids:
            tids[key] = len([k for k in tids if k[0] == pid]) + 1
        events.append(
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "pid": pid,
                "tid": tids[key],
                "ts": (t0 - t_base) / 1000.0,
                "dur": (t1 - t0) / 1000.0,
            }
        )
    for pid, label in (process_names or {}).items():
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}
