"""Deterministic fault injection and chaos testing for the runtimes.

:mod:`repro.testing.faults` provides :class:`FaultPlan` — a seeded,
site-keyed source of injected delays, verifier faults and policy
crashes — and :class:`FaultyPolicy`, a policy wrapper that
injects :class:`~repro.errors.InjectedFaultError` into the verification
path.

:mod:`repro.testing.chaos` generates seeded random fork/join programs
(deadlock-free by construction) as :class:`~repro.predict.TraceProgram`
skeletons and runs them through one runner, :func:`run_chaos_program`,
on the skeleton's blocking body, under any registered policy on either
blocking runtime, with crashes, delays, verifier faults and flaky
retried leaves injected.  It checks a battery of invariants: verifier
statistics exactly match the program, the run quiesces (waits-for
graph empty, no task leaks a BLOCKED state), every TJ verdict agrees
with the formal TJ order of the program's fork tree, and — for
``stable_permits`` policies — the permission verdicts are identical
with and without injected delays.
"""

from .faults import FaultPlan, FaultyPolicy, PolicyBugError
from .chaos import (
    ChaosInvariantError,
    ChaosResult,
    generate_spec,
    run_chaos_program,
    run_with_policy_quarantine,
)

__all__ = [
    "ChaosInvariantError",
    "ChaosResult",
    "FaultPlan",
    "FaultyPolicy",
    "PolicyBugError",
    "generate_spec",
    "run_chaos_program",
    "run_with_policy_quarantine",
]
