"""Deterministic fault injection and chaos testing for the runtimes.

:mod:`repro.testing.faults` provides :class:`FaultPlan` — a seeded,
site-keyed source of injected delays, verifier faults, policy crashes
and sidecar faults — and :class:`FaultyPolicy`, a policy wrapper that
injects :class:`~repro.errors.InjectedFaultError` into the verification
path.

:mod:`repro.testing.chaos` generates seeded random fork/join programs
(deadlock-free by construction) and runs them through one runner,
:func:`run_chaos_program`, under any registered policy on either
blocking runtime, with crashes, delays, verifier faults and flaky
retried leaves injected.  It checks a battery of invariants: verifier
statistics exactly match the program spec, the run quiesces (waits-for
graph empty, no task leaks a BLOCKED state), and —
for ``stable_permits`` policies — the permission verdicts are identical
with and without injected delays.
"""

from .faults import FaultPlan, FaultyPolicy, PolicyBugError
from .chaos import (
    ChaosInvariantError,
    ChaosResult,
    ChaosSpec,
    ServiceChaosResult,
    generate_spec,
    run_chaos_program,
    run_with_policy_quarantine,
    run_with_service_faults,
)

__all__ = [
    "ChaosInvariantError",
    "ChaosResult",
    "ChaosSpec",
    "FaultPlan",
    "FaultyPolicy",
    "PolicyBugError",
    "ServiceChaosResult",
    "generate_spec",
    "run_chaos_program",
    "run_with_policy_quarantine",
    "run_with_service_faults",
]
