"""Chaos coverage for the multi-process runtime's sidecar path.

``run_procs_divergence`` runs a seeded fork-heavy program all-local and
on worker processes and compares every subtree result.  When a sidecar
is named it must also show that the cross-process joins reached it: a
dead sidecar degrades every cross join to the worker-local shard, which
stays sound, so without that check the run would pass unnoticed.
"""

from __future__ import annotations

import socket

import pytest

from repro.testing.chaos import ChaosInvariantError, run_procs_divergence


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
