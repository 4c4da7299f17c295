"""Tests for TraceProgram: journal reconstruction, the witness format, and runs on both bodies."""

import sys

import pytest

from repro.predict import TraceProgram
from repro.runtime import TaskRuntime, WorkSharingRuntime
from repro.runtime.supervisor import resolve_policy
from repro.testing import FaultPlan, FaultyPolicy, generate_spec


def _rec(kind, **fields):
    return {"kind": kind, **fields}


class TestFromRecords:
    def test_forks_and_joins_in_program_order(self):
        records = [
            _rec("init", task="t0"),
            _rec("fork", parent="t0", child="t1"),
            _rec("fork", parent="t0", child="t2"),
            _rec("verdict", waiter="t0", joinee="t1", ok=True),
            _rec("join", waiter="t0", joinee="t1"),
            _rec("verdict", waiter="t0", joinee="t2", ok=True),
            _rec("join", waiter="t0", joinee="t2"),
        ]
        program = TraceProgram.from_records(records)
        assert program.root == "t0"
        assert program.actions["t0"] == (
            ("fork", "t1"),
            ("fork", "t2"),
            ("join", "t1"),
            ("join", "t2"),
        )

    def test_completed_blocking_join_is_one_attempt(self):
        """verdict, block, unblock, join on one edge = a single join."""
        records = [
            _rec("init", task="t0"),
            _rec("fork", parent="t0", child="t1"),
            _rec("verdict", waiter="t0", joinee="t1", ok=True),
            _rec("block", waiter="t0", joinee="t1"),
            _rec("unblock", waiter="t0", joinee="t1"),
            _rec("join", waiter="t0", joinee="t1"),
        ]
        program = TraceProgram.from_records(records)
        assert program.actions["t0"] == (("fork", "t1"), ("join", "t1"))

    def test_rescued_then_retried_join_is_two_attempts(self):
        """A fresh verdict on an edge whose prior attempt never joined
        means the deadline rescued it and the program tried again."""
        records = [
            _rec("init", task="t0"),
            _rec("fork", parent="t0", child="t1"),
            _rec("verdict", waiter="t0", joinee="t1", ok=True),
            _rec("block", waiter="t0", joinee="t1", timeout=0.1),
            _rec("unblock", waiter="t0", joinee="t1"),
            _rec("verdict", waiter="t0", joinee="t1", ok=True),
            _rec("join", waiter="t0", joinee="t1"),
        ]
        program = TraceProgram.from_records(records)
        assert program.actions["t0"] == (
            ("fork", "t1"),
            ("join", "t1"),
            ("join", "t1"),
        )

    def test_avoided_join_is_still_an_attempt(self):
        records = [
            _rec("init", task="t0"),
            _rec("fork", parent="t0", child="t1"),
            _rec("avoided", waiter="t0", joinee="t1"),
        ]
        program = TraceProgram.from_records(records)
        assert ("join", "t1") in program.actions["t0"]

    def test_no_init_refused(self):
        with pytest.raises(ValueError, match="no init"):
            TraceProgram.from_records([_rec("fork", parent="t0", child="t1")])

    def test_dict_roundtrip(self):
        program = TraceProgram(
            root="t0",
            actions={
                "t0": (("fork", "t1"), ("join", "t1")),
                "t1": (),
            },
        )
        assert TraceProgram.from_dict(program.to_dict()) == program
        assert TraceProgram.from_dict(_kinds_program().to_dict()) == _kinds_program()

    @pytest.mark.parametrize(
        "task, action, match",
        [
            ("t0", ["frok", "t1"], "unknown action kind 'frok'"),
            ("t0", ["fork", "t9"], "fork of 't9', which is no task"),
            ("t3", ["join", "t9"], "join of 't9'"),
            ("t0", ["join_batch", "t9"], "join_batch of 't9'"),
            ("t1", ["fail", "-1"], "fail count '-1'"),
            ("t1", ["fail", "twice"], "fail count 'twice'"),
        ],
    )
    def test_a_bad_action_is_refused_when_read(self, task, action, match):
        body = _kinds_program().to_dict()
        body["actions"][task].append(action)
        with pytest.raises(ValueError, match=match):
            TraceProgram.from_dict(body)


def _kinds_program():
    """t0 batch-joins t1, which crashes, and t2, which fails twice, then
    joins t3, which forks and joins t4."""
    return TraceProgram(
        root="t0",
        actions={
            "t0": (
                ("fork", "t1"),
                ("fork", "t2"),
                ("fork", "t3"),
                ("join_batch", "t1"),
                ("join_batch", "t2"),
                ("join", "t3"),
            ),
            "t1": (("crash", "t1"),),
            "t2": (("fail", "2"),),
            "t3": (("fork", "t4"), ("join", "t4")),
            "t4": (),
        },
    )


class _Sites:
    """A duck-typed fault plan that records where it was asked to sleep."""

    def __init__(self):
        self.sites = []

    def sleep(self, site):
        self.sites.append(site)


class TestActionKinds:
    def test_join_edges_count_batched_joins(self):
        assert _kinds_program().join_edges() == [
            ("t0", "t1"), ("t0", "t2"), ("t0", "t3"), ("t3", "t4"),
        ]

    def test_the_simulator_has_no_retry(self):
        outcome = _kinds_program().run_sim("TJ-SP")
        assert outcome.error is None and outcome.deadlock is None
        assert sorted(outcome.refusals) == [
            ("t0", "t1", "TaskFailedError"), ("t0", "t2", "TaskFailedError"),
        ]
        assert sorted(outcome.completed_joins) == [("t0", "t3"), ("t3", "t4")]
        assert set(outcome.handles) == set(_kinds_program().actions)

    @pytest.mark.parametrize("runtime", [TaskRuntime, WorkSharingRuntime])
    def test_the_blocking_body_retries_the_failing_task(self, runtime):
        rt = runtime("TJ-SP", on_unjoined_failure="ignore")
        plan = _Sites()
        outcome = _kinds_program().run_blocking(rt, plan)
        assert outcome.refusals == [("t0", "t1", "InjectedFaultError")]
        assert sorted(outcome.completed_joins) == [("t0", "t2"), ("t0", "t3"), ("t3", "t4")]
        assert outcome.starts == {"t0": 1, "t1": 1, "t2": 3, "t3": 1, "t4": 1}
        assert outcome.faults == 0 and rt.tasks_retried == 2
        assert set(outcome.futures) == {"t1", "t2", "t3", "t4"}
        assert set(outcome.handles) == set(_kinds_program().actions)
        assert sorted(set(plan.sites)) == [
            ("pre-join", "t0", "t3"),
            ("pre-join", "t3", "t4"),
            *[("start", t) for t in ("t0", "t1", "t2", "t3", "t4")],
        ]

    @pytest.mark.parametrize("runtime", [TaskRuntime, WorkSharingRuntime])
    def test_every_verifier_fault_is_counted_and_its_join_retried(self, runtime):
        """Eight tasks join their own three leaves at once, under a short
        switch interval: a lost update of the shared fault count shows."""
        faulty = FaultyPolicy(
            resolve_policy("TJ-SP"), FaultPlan(seed=1, verifier_fault_rate=0.4)
        )
        rt = runtime(faulty, on_unjoined_failure="ignore")
        actions = {"t0": ()}
        for m in range(1, 9):
            leaves = [f"t{m * 10 + k}" for k in range(3)]
            actions["t0"] = (("fork", f"t{m}"),) + actions["t0"] + (("join", f"t{m}"),)
            actions[f"t{m}"] = tuple(("fork", t) for t in leaves) + tuple(("join", t) for t in leaves)
            actions.update({t: () for t in leaves})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            outcome = TraceProgram(root="t0", actions=actions).run_blocking(rt)
        finally:
            sys.setswitchinterval(interval)
        assert outcome.faults == faulty.faults_injected > 0
        assert outcome.refusals == []
        assert len(outcome.completed_joins) == 32 == rt.verifier.stats.joins_checked
        assert set(outcome.starts.values()) == {1}

    def test_chaos_programs_refuse_exactly_their_crashes_on_the_simulator(self):
        crashed = 0
        for seed in range(30):
            program = generate_spec(seed, max_tasks=10, crash_rate=0.15)
            crashes = {t for t, acts in program.actions.items() if ("crash", t) in acts}
            crashed += len(crashes)
            for policy in ("TJ-SP", "KJ-VC", None):
                outcome = program.run_sim(policy)
                assert outcome.error is None and outcome.deadlock is None
                assert {joinee for _, joinee, _ in outcome.refusals} == crashes
                assert len(outcome.completed_joins) + len(outcome.refusals) == len(
                    program.join_edges()
                )
        assert crashed > 0


def _mutual_join_program():
    """root forks t1, t2; t1 joins t2; t2 joins t1 — a realizable cycle."""
    return TraceProgram(
        root="t0",
        actions={
            "t0": (("fork", "t1"), ("fork", "t2"), ("join", "t1"), ("join", "t2")),
            "t1": (("join", "t2"),),
            "t2": (("join", "t1"),),
        },
    )


class TestRunSim:
    def test_fifo_run_of_a_safe_program_is_clean(self):
        program = TraceProgram(
            root="t0",
            actions={"t0": (("fork", "t1"), ("join", "t1")), "t1": ()},
        )
        outcome = program.run_sim(None)
        assert outcome.verdict == "clean"
        assert outcome.deadlock is None

    def test_some_schedule_realizes_the_mutual_join_cycle(self):
        program = _mutual_join_program()
        deadlocked = set()
        for seed in range(20):
            outcome = program.run_sim(None, seed=seed)
            if outcome.verdict == "deadlock":
                deadlocked.add(outcome.deadlock)
        assert deadlocked  # some interleaving closes the cycle
        for cycle in deadlocked:
            assert set(cycle) >= {"t1", "t2"}

    def test_policies_never_deadlock_on_the_same_program(self):
        program = _mutual_join_program()
        for policy in ("TJ-SP", "KJ-VC"):
            for seed in range(10):
                outcome = program.run_sim(policy, seed=seed)
                assert outcome.verdict != "deadlock", (policy, seed)

    def test_deadlocking_run_yields_a_replayable_schedule(self):
        program = _mutual_join_program()
        outcome = None
        for seed in range(50):
            candidate = program.run_sim(None, seed=seed)
            if candidate.verdict == "deadlock":
                outcome = candidate
                break
        assert outcome is not None
        replay = program.run_sim(None, schedule=outcome.schedule)
        assert replay.verdict == "deadlock"
        assert replay.deadlock == outcome.deadlock
