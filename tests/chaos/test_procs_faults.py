"""Chaos coverage for the multi-process runtime's sidecar path.

``run_procs_divergence`` runs a seeded fork-heavy program all-local and
on worker processes and compares every subtree result.  When a sidecar
is named it must also show that the cross-process audits reached it: a
dead sidecar leaves every cross join degraded, which stays sound, so
without that check the run would pass unnoticed.  A sidecar SIGKILLed
mid-run must cost neither the results nor the run's progress.
"""

from __future__ import annotations

import gc
import socket
import time
import warnings

import pytest

from repro.runtime import ProcessRuntime
from repro.service.proc import SidecarProcess
from repro.testing.chaos import (
    ChaosInvariantError,
    _procs_chaos_subtree,
    _procs_leaf,
    run_procs_divergence,
)

#: SessionClient's default socket timeout: the longest a dead sidecar
#: may hold a worker's closing sync
CLIENT_TIMEOUT = 5.0


def _closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestProcsSidecarReached:
    def test_dead_sidecar_fails_the_run(self):
        url = f"remote://127.0.0.1:{_closed_port()}"
        with pytest.raises(ChaosInvariantError, match="was not reached"):
            run_procs_divergence(
                0, workers=2, tasks=200, sidecar=url, kill_worker=False
            )

    def test_live_sidecar_resolves_every_cross_join(self):
        result = run_procs_divergence(
            0, workers=2, tasks=200, sidecar="auto", kill_worker=False
        )
        assert result.divergences == []
        assert result.join_stats["cross_joins"] >= 200
        assert result.join_stats["degraded_joins"] == 0


class TestProcsSidecarKilledMidRun:
    def test_the_run_finishes_verified_with_its_audits_degraded(self):
        sidecar = SidecarProcess(port=0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                rt = ProcessRuntime(workers=2, sidecar=sidecar.url, seg0=64, stripe=16)

                def root():
                    results = [rt.join(rt.fork(_procs_chaos_subtree, 0, 5))]
                    sidecar.kill9()  # after the first dispatch completed
                    futs = [rt.fork(_procs_chaos_subtree, 10 * t, 5) for t in range(1, 4)]
                    return results + rt.join_batch(futs)

                t0 = time.monotonic()
                results = rt.run(root)
                elapsed = time.monotonic() - t0
            finally:
                sidecar.stop()
            js = rt.join_stats()
            del rt
            gc.collect()
        assert results == [
            sum(_procs_leaf(10 * t + i) for i in range(5)) for t in range(4)
        ]
        assert js["cross_joins"] == 20
        assert 0 < js["degraded_joins"] <= js["cross_joins"]
        assert elapsed < CLIENT_TIMEOUT + 10.0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
