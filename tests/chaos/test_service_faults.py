"""Chaos coverage for the verification sidecar: kill -9 and link drops.

``run_with_service_faults`` runs a seeded deadlock-free program twice —
all-local (the reference) and against a real sidecar subprocess that the
:class:`FaultPlan` SIGKILLs (or whose TCP link it severs) mid-run — then
restarts the sidecar from its journal, reconciles, and asserts its full
invariant set internally: the workload completed with exact client-side
counts, the journal's verdict stream reached the client's check count,
and every journalled verdict equals the reference run's.  The checks
here pin the headline numbers a regression would move first.
"""

from __future__ import annotations

import pytest

from repro.service.client import RemoteVerifier
from repro.testing import ChaosInvariantError, run_with_service_faults

RUNTIMES = ["threaded", "pool"]


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestSidecarKillChaos:
    def test_kill9_degrades_then_reconciles_with_zero_divergence(self, runtime):
        for seed in (7, 11):
            result = run_with_service_faults(
                seed, runtime=runtime, max_tasks=10, service_crash_rate=1.0
            )
            assert result.sidecar_killed
            assert result.kill_after_checks >= 1
            assert result.degradations >= 1
            # (a kill landing after the final check leaves nothing to
            # replay, so `reconciles` may legitimately be 0)
            assert result.verdict_mismatches == []
            # reconcile restored the server's stats: one journalled
            # verdict per client check (rechecks may add extras)
            assert result.journal_verdicts >= result.remote_stats.joins_checked
            # the remote run checked exactly as many joins as the
            # all-local reference — no join unblocked unverified
            assert (
                result.remote_stats.joins_checked
                == result.local_stats.joins_checked
            )

    def test_verdicts_match_the_reference_run_edge_for_edge(self, runtime):
        result = run_with_service_faults(19, runtime=runtime, max_tasks=12)
        assert result.verdict_mismatches == []
        assert result.remote_stats.joins_rejected == result.local_stats.joins_rejected


class TestConnectionDropChaos:
    def test_link_drops_without_a_crash_still_converge(self):
        result = run_with_service_faults(
            3,
            runtime="threaded",
            max_tasks=12,
            service_crash_rate=0.0,
            connection_drop_rate=0.4,
        )
        assert not result.sidecar_killed
        assert result.drops_injected >= 1
        assert result.degradations >= result.drops_injected
        assert result.verdict_mismatches == []
        assert result.journal_verdicts >= result.remote_stats.joins_checked

    def test_no_faults_at_all_is_a_clean_remote_run(self):
        result = run_with_service_faults(
            5, runtime="threaded", max_tasks=10, service_crash_rate=0.0
        )
        assert not result.sidecar_killed
        assert result.drops_injected == 0
        # every verdict reached the sidecar as a live check
        assert (result.degradations, result.reconciles, result.rechecks_sent) == (0, 0, 0)
        assert result.verdict_mismatches == []
        assert result.remote_stats.joins_checked == result.local_stats.joins_checked

    def test_a_degradation_on_a_fault_free_run_fails_the_slice(self, monkeypatch):
        """A client that degrades once still gets every verdict journalled,
        through reconcile rechecks; the slice must refuse that as a clean
        remote run."""
        roundtrip = RemoteVerifier._roundtrip_check
        dropped = []

        def drop_once(self, *args, **kwargs):
            if not dropped:
                dropped.append(True)
                self._test_drop_connection()
            return roundtrip(self, *args, **kwargs)

        monkeypatch.setattr(RemoteVerifier, "_roundtrip_check", drop_once)
        with pytest.raises(ChaosInvariantError, match="fault-free run"):
            run_with_service_faults(5, runtime="threaded", max_tasks=10, service_crash_rate=0.0)
        assert dropped
