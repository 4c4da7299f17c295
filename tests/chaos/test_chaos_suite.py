"""The chaos suite: seeded random fork/join programs under fire.

Every registered policy runs every generated program on both blocking
runtimes with crashes and scheduling delays injected from a seeded
:class:`FaultPlan`.  After each run, :func:`run_chaos_program` asserts
the supervised-runtime invariants (exact verifier stats, empty Armus
graph, no leaked BLOCKED states, no watchdog firings, every planned
crash observed, every TJ verdict equal to the formal TJ order of the
program's fork tree).  ``ChaosInvariantError`` from any of the ~200+
programs is a real bug, not flake: the schedule perturbations are
deterministic per seed, so failures replay.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import pytest

from repro.armus.graph import Entry
from repro.core.policy import POLICY_REGISTRY, JoinPolicy
from repro.core.tj_sp_flat import FlatTreePy
from repro.runtime import TaskRuntime
from repro.runtime.task import TaskState
from repro.testing import FaultPlan, generate_spec, run_chaos_program
from repro.testing.chaos import quiescence_violations

POLICIES = sorted(POLICY_REGISTRY)
RUNTIMES = ["threaded", "pool"]
SEEDS_PER_CELL = 12  # 9 policies x 2 runtimes x 12 seeds = 216 programs


@pytest.mark.parametrize("runtime", RUNTIMES)
@pytest.mark.parametrize("policy", POLICIES)
class TestChaosSweep:
    def test_seeded_programs_hold_every_invariant(self, policy, runtime):
        for seed in range(SEEDS_PER_CELL):
            plan = FaultPlan(seed=seed, delay_rate=0.25, max_delay=0.002)
            result = run_chaos_program(
                seed,
                policy=policy,
                runtime=runtime,
                max_tasks=10,
                crash_rate=0.15,
                plan=plan,
            )
            assert result.violations == []

    def test_crash_free_programs_too(self, policy, runtime):
        """No crashes at all: the pure fork/join invariants still hold
        (this is the cell where a stats or registry leak would hide if
        crash handling were doing the cleanup by accident)."""
        for seed in range(3):
            result = run_chaos_program(
                1000 + seed,
                policy=policy,
                runtime=runtime,
                max_tasks=8,
                crash_rate=0.0,
                plan=FaultPlan(seed=seed, delay_rate=0.3, max_delay=0.002),
            )
            assert result.violations == []
            assert result.failures_observed == frozenset()


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestDelayEquivalence:
    """Verdict streams are schedule-independent for stable policies."""

    @pytest.mark.parametrize(
        "policy", [p for p in POLICIES if POLICY_REGISTRY[p]().stable_permits]
    )
    def test_verdicts_identical_with_and_without_delays(self, policy, runtime):
        for seed in range(4):
            plan = FaultPlan(seed=seed, delay_rate=0.5, max_delay=0.003)
            delayed = run_chaos_program(
                seed, policy=policy, runtime=runtime, plan=plan, max_tasks=9
            )
            calm = run_chaos_program(
                seed, policy=policy, runtime=runtime, plan=plan.without_delays(),
                max_tasks=9,
            )
            assert delayed.verdicts == calm.verdicts
            assert delayed.violations == [] and calm.violations == []


class FlippedSiblings(FlatTreePy):
    """The py kernel's climb with its sibling test flipped: a planted bug
    that the Armus fallback hides, since in a deadlock-free program it
    permits every join the kernel wrongly denies."""

    def permits(self, a: int, b: int) -> bool:
        if a == b:
            return False
        parent, la, lb = self.parent, -1, -1
        while a != b:
            if a > b:
                la, a = a, parent[a]
            else:
                lb, b = b, parent[b]
        if la < 0 or lb < 0:
            return la < 0
        return la < lb  # the kernel's own test reads la > lb


class KernelPolicy(JoinPolicy):
    """TJ-SP over the given kernel, so one test body runs on the shipped
    kernel and on a planted-bug one."""

    name = "TJ-SP"
    stable_permits = True

    def __init__(self, kernel: FlatTreePy) -> None:
        self.kernel = kernel

    def add_child(self, parent):
        return self.kernel.add_child(-1 if parent is None else parent)

    def permits(self, joiner, joinee) -> bool:
        return self.kernel.permits(joiner, joinee)


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestTJOrderOracle:
    """Every TJ verdict of a chaos run is judged by the formal TJ order of
    the program's fork tree, so a wrong verdict fails the run even when
    nothing else notices it."""

    @pytest.mark.parametrize("kernel, planted_bug", [(FlatTreePy, False), (FlippedSiblings, True)])
    def test_a_wrong_verdict_is_a_violation_naming_its_pair(self, kernel, planted_bug, runtime):
        violations = []
        for seed in range(6):
            violations += run_chaos_program(
                seed, policy=KernelPolicy(kernel()), runtime=runtime,
                max_tasks=10, crash_rate=0.15, check=False,
            ).violations
        assert bool(violations) == planted_bug
        # the oracle alone sees the bug, and names each pair it judged
        pair = re.compile(r"permits\(t\d+, t\d+\) is (True|False), the TJ order says (True|False)")
        assert all(pair.fullmatch(v) for v in violations)


@pytest.mark.parametrize("runtime", RUNTIMES)
class TestVerifierFaultInjection:
    """A fault raised from inside ``permits`` must leave the verifier
    accounting exact: ``joins_checked == attempts - injected faults``,
    and the run quiescent."""

    def test_faulty_policy_accounting_is_exact(self, runtime):
        faults = 0
        for seed in range(6):
            result = run_chaos_program(
                seed,
                policy="TJ-SP",
                runtime=runtime,
                max_tasks=10,
                plan=FaultPlan(seed=seed, verifier_fault_rate=0.25),
            )
            assert result.policy_name == "faulty(TJ-SP)"
            faults += result.faults
        assert faults > 0  # the storm actually hit some joins

    def test_zero_fault_rate_injects_nothing(self, runtime):
        result = run_chaos_program(
            0,
            policy="TJ-SP",
            runtime=runtime,
            max_tasks=10,
            plan=FaultPlan(seed=0, verifier_fault_rate=0.0),
        )
        assert result.faults == 0


class _Runtime:
    """Just enough of a runtime for :func:`quiescence_violations`."""

    def __init__(self, blocked=(), forced=0, diagnoses=0):
        self._blocked = list(blocked)
        self.detector = SimpleNamespace(live_forced_edges=forced)
        self.watchdog = SimpleNamespace(deadlocks_detected=diagnoses)

    def blocked_joins(self):
        return list(self._blocked)


class TestQuiescenceCheck:
    """Each of the five end-of-run conditions is reported on its own, so
    an edit that drops one from the shared check fails here."""

    HANDLES = {0: SimpleNamespace(state=TaskState.DONE)}
    FUTURES = {1: SimpleNamespace(done=lambda: True)}

    def check(self, rt=None, handles=None, futures=None):
        return quiescence_violations(
            rt or _Runtime(), handles or self.HANDLES, futures or self.FUTURES
        )

    def test_quiescent_state_passes(self):
        assert self.check() == []

    def test_pending_future(self):
        [problem] = self.check(futures={3: SimpleNamespace(done=lambda: False)})
        assert "task 3 future not done" in problem

    def test_blocked_task(self):
        [problem] = self.check(handles={4: SimpleNamespace(state=TaskState.BLOCKED)})
        assert "task 4 left in BLOCKED state" in problem

    def test_join_registry_not_empty(self):
        [problem] = self.check(rt=_Runtime(blocked=["edge"]))
        assert "waits-for graph not empty" in problem

    def test_armus_graph_not_empty(self):
        """One condition for the one store: blocked_joins() reads the
        graph Armus searches, so an edge left there is reported."""
        rt = TaskRuntime(policy="TJ-SP", watchdog=False)
        rt.detector.graph.add(Entry("a", "b"))
        [problem] = self.check(rt=rt)
        assert "waits-for graph not empty" in problem

    def test_live_forced_edge(self):
        [problem] = self.check(rt=_Runtime(forced=2))
        assert "2 forced edges still live" in problem

    def test_watchdog_diagnosis(self):
        [problem] = self.check(rt=_Runtime(diagnoses=1))
        assert "watchdog diagnosed a deadlock" in problem

    def test_runtime_without_detector_or_watchdog(self):
        rt = _Runtime()
        rt.detector = rt.watchdog = None
        assert self.check(rt=rt) == []


class TestDeterminism:
    def test_same_seed_same_spec(self):
        assert generate_spec(7) == generate_spec(7)
        assert generate_spec(7) != generate_spec(8)

    def test_fault_plan_sites_are_independent(self):
        plan = FaultPlan(seed=3, verifier_fault_rate=0.5)
        # the same site always answers the same; distinct sites are
        # independently seeded, not a shared stream
        site = ("permits", 1)
        assert plan.verifier_fault(site) == plan.verifier_fault(site)
        assert plan.decide(site, 0.5) == plan.decide(site, 0.5)
        answers = {n: plan.verifier_fault(("permits", n)) for n in range(64)}
        assert len(set(answers.values())) == 2  # both outcomes occur

    def test_without_delays_preserves_crash_decisions(self):
        plan = FaultPlan(
            seed=11, verifier_fault_rate=0.4, policy_crash_rate=0.4, delay_rate=0.9
        )
        calm = plan.without_delays()
        for n in range(64):
            site = ("permits", n)
            assert plan.verifier_fault(site) == calm.verifier_fault(site)
            assert plan.policy_crash(site) == calm.policy_crash(site)
        assert calm.delay_rate == 0.0
