"""Unified telemetry for the verifier/runtime stack.

Three layers, all zero-cost when disabled:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  sharded counters, gauges, and fixed-bucket ns histograms; the single
  stats mechanism behind ``VerifierStats``, ``ArmusStats`` and runtime
  counters.
* :mod:`repro.obs.tracing` — span-based task-lifecycle tracing with a
  ring-buffer collector and Chrome-trace / Perfetto export.
* :mod:`repro.obs.top` — a terminal ``top`` view over a live snapshot.

Telemetry is opt-in and process-global: call :func:`enable` *before*
constructing runtimes/verifiers, and they pick up the active
:class:`Telemetry` at construction and cache it on ``self``.  When no
telemetry is active (the default), every instrumentation site reduces
to one ``is None`` attribute test — no allocation, no call, verified by
the ``tracemalloc`` test in ``tests/obs/``.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from typing import Optional

from .metrics import (
    NS_BUCKETS,
    WAIT_NS_BUCKETS,
    Counter,
    CounterGroup,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracing import SpanCtx, Tracer, current_span, current_trace_context

__all__ = [
    "Telemetry",
    "enable",
    "disable",
    "active",
    "enabled",
    "using",
    "MetricsRegistry",
    "CounterGroup",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "SpanCtx",
    "current_span",
    "current_trace_context",
    "NS_BUCKETS",
    "WAIT_NS_BUCKETS",
]


class Telemetry:
    """A telemetry session: one registry, one tracer, shared hot handles.

    The latency histograms and event counters the instrumentation sites
    hit on every fork/join are pre-created here and bound as plain
    attributes, so a hot path pays exactly one attribute load beyond
    the work of recording.  Per-policy join-check histograms are created
    lazily by each verifier (same registry, ``policy=...`` label).
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        trace_capacity: int = 65536,
        registry: Optional[MetricsRegistry] = None,
        trace_id: Optional[str] = None,
    ):
        self.registry = MetricsRegistry() if registry is None else registry
        self.tracer: Optional[Tracer] = (
            Tracer(trace_capacity, trace_id=trace_id) if tracing else None
        )
        self.started_at = time.time()
        self._runtimes: list = []  # weakrefs to attached runtimes
        self._runtimes_lock = threading.Lock()

        reg = self.registry
        # latency histograms (nanoseconds)
        self.fork_ns = reg.histogram("repro_runtime_fork_ns")
        self.blocked_wait_ns = reg.histogram(
            "repro_runtime_blocked_wait_ns", buckets=WAIT_NS_BUCKETS
        )
        self.cycle_check_ns = reg.histogram("repro_armus_cycle_check_ns")
        self.journal_flush_ns = reg.histogram("repro_journal_flush_ns")
        # event counters
        self.wakeups = reg.counter("repro_runtime_wakeups_total")
        self.blocked_waits = reg.counter("repro_runtime_blocked_waits_total")

    # runtime attachment (for the live `top` view) ----------------------
    def attach_runtime(self, runtime) -> None:
        with self._runtimes_lock:
            self._runtimes = [r for r in self._runtimes if r() is not None]
            self._runtimes.append(weakref.ref(runtime))

    def runtimes(self) -> list:
        with self._runtimes_lock:
            return [rt for r in self._runtimes if (rt := r()) is not None]

    def blocked_joins(self) -> list:
        """All currently blocked joins across attached runtimes."""
        out = []
        for rt in self.runtimes():
            try:
                out.extend(rt.blocked_joins())
            except Exception:  # a runtime mid-shutdown is not an error
                pass
        return out

    # convenience delegates ---------------------------------------------
    def snapshot(self) -> dict:
        return self.registry.snapshot()

    def to_json(self, indent: int = 2) -> str:
        return self.registry.to_json(indent=indent)

    def to_prometheus(self) -> str:
        return self.registry.to_prometheus()

    def to_chrome_trace(self) -> Optional[dict]:
        return None if self.tracer is None else self.tracer.to_chrome_trace()


_active: Optional[Telemetry] = None
_active_lock = threading.Lock()


def enable(**kwargs) -> Telemetry:
    """Activate a fresh :class:`Telemetry` session and return it.

    Components constructed *after* this call are instrumented; existing
    objects keep whatever session (or ``None``) they saw at
    construction time.
    """
    global _active
    with _active_lock:
        _active = Telemetry(**kwargs)
        return _active


def disable() -> None:
    """Deactivate telemetry for subsequently-constructed components."""
    global _active
    with _active_lock:
        _active = None


def active() -> Optional[Telemetry]:
    """The currently-active telemetry session, or ``None``."""
    return _active


@contextmanager
def enabled(**kwargs):
    """Scoped telemetry: enable on entry, restore the prior state on exit."""
    global _active
    with _active_lock:
        prior = _active
        _active = Telemetry(**kwargs)
        session = _active
    try:
        yield session
    finally:
        with _active_lock:
            _active = prior


@contextmanager
def using(session: Optional[Telemetry]):
    """Scoped activation of an existing session (or ``None`` = disabled).

    The overhead benchmark interleaves disabled / metrics-only / full
    arms regardless of the ambient state, which :func:`enabled` cannot
    express (it always creates a fresh session).
    """
    global _active
    with _active_lock:
        prior = _active
        _active = session
    try:
        yield session
    finally:
        with _active_lock:
            _active = prior
