"""Chaos coverage for the self-healing layer: quarantine and retry.

``run_with_policy_quarantine`` crashes *every* policy call (a
policy-bug storm, not a verdict) and proves the degraded verifier still
catches every true deadlock via Armus — across the whole policy
registry and both blocking runtimes, in both fail modes.
``run_chaos_program(..., fail_attempts=N)`` makes seeded leaf tasks
fail N times and proves the retry machinery re-runs them to success
while the verifier accounting stays exact.  Both runners assert their
full invariant sets internally (raising ``AssertionError`` on any
breach); the checks here pin the headline numbers a regression would
move first.
"""

from __future__ import annotations

import pytest

from repro.core.policy import POLICY_REGISTRY
from repro.testing import run_chaos_program, run_with_policy_quarantine

POLICIES = sorted(POLICY_REGISTRY)
RUNTIMES = ["threaded", "pool"]


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("policy", POLICIES)
class TestQuarantineChaos:
    """Every policy x both runtimes x both fail modes."""

    def test_fail_open_still_avoids_every_deadlock(self, policy, runtime):
        for seed in range(2):
            result = run_with_policy_quarantine(
                seed, policy=policy, runtime=runtime, fail_mode="open"
            )
            assert result.stats.policy_faults >= 1
            assert result.deadlocks_avoided == result.deadlock_pairs > 0

    def test_fail_closed_refuses_deterministically(self, policy, runtime):
        result = run_with_policy_quarantine(
            0, policy=policy, runtime=runtime, fail_mode="closed"
        )
        assert result.stats.policy_faults == 1
        assert result.quarantined_joins == 4


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestRetryChaos:
    def test_flaky_leaves_retry_to_success(self, runtime):
        for seed in (1, 2, 11):
            result = run_chaos_program(seed, runtime=runtime, fail_attempts=2)
            assert result.flaky_tasks  # the storm actually hit something
            assert result.retries == 2 * len(result.flaky_tasks)

    def test_retry_composes_with_other_policies(self, runtime):
        for policy in ("TJ-OM", "KJ-VC"):
            result = run_chaos_program(
                3, policy=policy, runtime=runtime, fail_attempts=1
            )
            assert result.retries == len(result.flaky_tasks) > 0
