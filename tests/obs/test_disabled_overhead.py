"""Disabled telemetry is allocation-free, not merely cheap.

The ``telemetry`` bounds of ``repro bench-record`` limit the
*relative* cost of enabled telemetry; the qualitative claims for the
default (disabled) state are stronger, and pinned with ``tracemalloc``:

* the telemetry layer proper (``obs/__init__.py``, ``obs/tracing.py``)
  allocates **nothing** during construction or fork/join execution —
  every instrumentation site reduces to one ``is None`` test;
* steady-state fork/join execution allocates nothing anywhere in
  ``repro/obs/``.  (A *fresh* thread's first event registers its
  per-thread stats cell in ``obs/metrics.py`` — that is the verifier's
  pre-existing sharded-stats surface, now registry-owned, and exists
  with or without telemetry.)
"""

from __future__ import annotations

import os
import tracemalloc

import repro.obs
from repro import TaskRuntime
from repro import obs
from repro.runtime.pool import WorkSharingRuntime

OBS_DIR = os.path.dirname(repro.obs.__file__)
#: everything under repro/obs/
ALL_OBS = [tracemalloc.Filter(True, os.path.join(OBS_DIR, "*"))]
#: just the telemetry layer (sessions, tracer) — excludes the shared
#: sharded-stats machinery in metrics.py
TELEMETRY_LAYER = [
    tracemalloc.Filter(True, os.path.join(OBS_DIR, "__init__.py")),
    tracemalloc.Filter(True, os.path.join(OBS_DIR, "tracing.py")),
]


def _allocated(filters, workload) -> int:
    """Bytes allocated from within *filters* while *workload* runs."""
    tracemalloc.start(10)
    try:
        workload()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    stats = snapshot.filter_traces(filters).statistics("filename")
    return sum(s.size for s in stats)


def _fork_join_workload():
    rt = TaskRuntime(policy="TJ-SP")

    def main():
        futures = [rt.fork(lambda: 1) for _ in range(8)]
        return sum(f.join() for f in futures)

    assert rt.run(main) == 8


class TestDisabledIsFree:
    def test_telemetry_layer_allocates_nothing_when_disabled(self):
        assert obs.active() is None, "telemetry must be off by default"
        _fork_join_workload()  # warm import-time and first-call caches
        assert _allocated(TELEMETRY_LAYER, _fork_join_workload) == 0

    def test_steady_state_fork_join_allocates_nothing_in_obs(self):
        """With worker threads warm (cells registered), a disabled run
        touches no obs code path that allocates at all."""
        assert obs.active() is None
        rt = WorkSharingRuntime(policy="TJ-SP")
        box = {}

        def main():
            for _ in range(8):  # warm: registers worker-thread cells
                assert rt.fork(lambda: 1).join() == 1
            tracemalloc.start(10)
            for _ in range(8):  # steady state, traced
                assert rt.fork(lambda: 1).join() == 1
            box["snap"] = tracemalloc.take_snapshot()
            tracemalloc.stop()
            return 1

        assert rt.run(main) == 1
        stats = box["snap"].filter_traces(ALL_OBS).statistics("filename")
        assert sum(s.size for s in stats) == 0

    def test_disabled_runtime_caches_none_at_construction(self):
        assert obs.active() is None
        rt = TaskRuntime()
        assert rt._obs is None
        assert rt.verifier._obs is None

    def test_enabled_mode_does_allocate_in_the_telemetry_layer(self):
        """Sanity check that the filters actually see telemetry
        allocations — otherwise the zeros above would be vacuous."""

        def enabled_workload():
            with obs.enabled():
                _fork_join_workload()

        assert _allocated(TELEMETRY_LAYER, enabled_workload) > 0


class TestActivationScoping:
    def test_enabled_restores_prior_state(self):
        assert obs.active() is None
        with obs.enabled(tracing=False) as session:
            assert obs.active() is session
        assert obs.active() is None

    def test_using_activates_and_restores(self):
        session = obs.Telemetry(tracing=False)
        with obs.using(session):
            assert obs.active() is session
            with obs.using(None):  # a truly-off arm inside an enabled scope
                assert obs.active() is None
            assert obs.active() is session
        assert obs.active() is None

    def test_components_capture_the_session_at_construction(self):
        with obs.enabled(tracing=False) as session:
            rt = TaskRuntime()
        assert rt._obs is session  # kept after the scope closes
        assert TaskRuntime()._obs is None  # constructed outside: off
