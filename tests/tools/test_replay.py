"""End-to-end tests: formal traces executed on the real runtimes."""

import random
import re

import pytest
from hypothesis import given, settings

from repro.formal.actions import Fork, Init, Join
from repro.formal.deadlock import contains_deadlock
from repro.formal.generators import (
    random_deadlocking_trace,
    random_kj_valid_trace,
    random_tj_valid_trace,
)
from repro.predict import TraceProgram
from repro.runtime.pool import WorkSharingRuntime
from repro.runtime.threaded import TaskRuntime

from ..conftest import spinning_joiners_trace, tj_valid_traces

#: the two blocking runtimes ``run_blocking`` drives
BLOCKING = (TaskRuntime, WorkSharingRuntime)


def replay(trace, policy, **kwargs):
    """*trace* run once on the deterministic simulator under ``repro
    replay``'s step cap.  An error that is not a detected deadlock is
    raised, so it fails the calling test."""
    program = TraceProgram.from_trace(trace)
    outcome = program.run_sim(policy, max_steps=program.replay_max_steps, **kwargs)
    if outcome.error is not None and outcome.deadlock is None:
        raise outcome.error
    return outcome


class TestReplayBasics:
    def test_simple_trace(self):
        trace = [Init("r"), Fork("r", "a"), Join("r", "a")]
        outcome = replay(trace, "TJ-SP")
        assert outcome.clean
        assert outcome.completed_joins == [("r", "a")]

    def test_empty_or_malformed_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceProgram.from_trace([])
        with pytest.raises(ValueError):
            TraceProgram.from_trace([Fork("r", "a")])

    @pytest.mark.parametrize(
        "trace, problem",
        [
            (
                [Init("r"), Fork("x", "a"), Join("r", "a")],
                "#1 fork(x, a): fork from unknown task 'x'",
            ),
            ([Init("r"), Join("r", "x")], "#1 join(r, x): join on unknown task"),
            (
                [Init("r"), Fork("r", "a"), Fork("r", "a")],
                "#2 fork(r, a): fork of existing task 'a'",
            ),
        ],
        ids=["fork-from-unknown", "join-on-unknown", "fork-twice"],
    )
    def test_ill_formed_trace_names_index_action_and_reason(self, trace, problem):
        """Run, each of these would wait forever for a future nobody
        forks, or fork one task twice."""
        with pytest.raises(ValueError, match=re.escape(problem)):
            TraceProgram.from_trace(trace)

    def test_join_on_root_is_refused(self):
        """``a`` skips its join on the root and carries on to the end,
        which ``r``'s join on ``a`` observes."""
        trace = [Init("r"), Fork("r", "a"), Join("a", "r"), Join("r", "a")]
        outcome = replay(trace, "TJ-SP")
        assert outcome.error is None
        assert outcome.refusals == [("a", "r", "JoinOnRoot")]
        assert outcome.completed_joins == [("r", "a")]

    def test_verifier_saw_every_join(self):
        trace = random_tj_valid_trace(random.Random(0), 20, 25)
        outcome = replay(trace, "TJ-SP")
        joins = sum(isinstance(a, Join) for a in trace)
        assert len(outcome.completed_joins) == joins
        assert outcome.runtime.verifier.stats.joins_checked >= joins

    def test_blocking_run_waits_for_unjoined_tasks(self):
        """Nobody joins ``a``, which forks and joins ``b`` after the root
        has returned: ``run`` waits for it all the same."""
        program = TraceProgram.from_trace(
            [Init("r"), Fork("r", "a"), Fork("a", "b"), Fork("b", "c"), Join("a", "b")]
        )
        for runtime in BLOCKING:
            outcome = program.run_blocking(runtime("TJ-SP"))
            assert outcome.completed_joins == [("a", "b")], runtime.__name__


class TestReplayProperties:
    @settings(max_examples=40, deadline=None)
    @given(trace=tj_valid_traces(max_tasks=15, max_joins=15))
    def test_tj_valid_traces_replay_cleanly_under_tj(self, trace):
        outcome = replay(trace, "TJ-SP")
        assert outcome.clean
        assert outcome.runtime.detector.stats.false_positives == 0
        assert outcome.runtime.detector.stats.deadlocks_avoided == 0

    def test_kj_valid_traces_replay_cleanly_under_kj(self):
        """Online KJ knowledge is a superset of the formal at-position
        knowledge (joins transfer *final* joinee knowledge), so a
        KJ-valid trace replays with zero flags under both KJ verifiers."""
        for seed in range(8):
            trace = random_kj_valid_trace(random.Random(seed), 12, 15)
            for kj in ("KJ-SS", "KJ-VC"):
                outcome = replay(trace, kj)
                assert outcome.clean
                assert outcome.runtime.detector.stats.false_positives == 0

    def test_deadlocking_trace_avoided_with_policy(self):
        """A trace with a planted join cycle completes under TJ+Armus,
        with at least one join refused."""
        for seed in range(5):
            trace = random_deadlocking_trace(random.Random(seed), 8, cycle_len=3)
            assert contains_deadlock(trace)
            outcome = replay(trace, "TJ-SP")
            assert outcome.error is None
            assert outcome.deadlock is None
            assert outcome.refusals
            refused = {kind for _, _, kind in outcome.refusals}
            assert refused <= {"PolicyViolationError", "DeadlockAvoidedError"}
            # the cycle was never allowed to form:
            assert outcome.runtime.detector.stats.deadlocks_avoided <= len(
                outcome.refusals
            )

    def test_deadlocking_trace_detected_without_policy(self):
        """With verification off, the deterministic runtime detects the
        planted deadlock instead of hanging, and names its ring."""
        trace = [
            Init("r"),
            Fork("r", "a"),
            Fork("r", "b"),
            Join("a", "b"),
            Join("b", "a"),
        ]
        outcome = replay(trace, None, fallback=False)
        assert not outcome.clean
        assert set(outcome.deadlock) == {"a", "b"}
        assert outcome.verdict == "deadlock"

    def test_joinee_of_a_deadlocked_forker_does_not_hang(self):
        """The root waits for ``x``, which ``a`` forks only after its
        join on ``b`` returns, and that join closes a cycle: the replay
        reports the cycle instead of waiting for ``x`` forever."""
        trace = [
            Init("r"),
            Fork("r", "a"),
            Fork("r", "b"),
            Join("a", "b"),
            Join("b", "a"),
            Fork("a", "x"),
            Join("r", "x"),
        ]
        outcome = replay(trace, None, fallback=False)
        assert set(outcome.deadlock) == {"a", "b"}

    def test_long_spinning_joiners_are_not_cut_short(self):
        """``s`` forks ``x`` only after a fork/join chain of depth D
        returns, while N older tasks already spin on ``x``'s future:
        about 2·N·D scheduler steps, more than the predictor's search cap
        (linear in the program's size), and the replay finishes clean."""
        trace = spinning_joiners_trace(700, 700)
        outcome = replay(trace, "TJ-SP")
        assert outcome.clean
        assert len(outcome.completed_joins) == sum(isinstance(a, Join) for a in trace)
        program = TraceProgram.from_trace(trace)
        assert outcome.steps > 200 * (program.total_actions + len(program.actions) + 1)

    def test_threaded_replay_matches_cooperative_for_tj(self):
        """Differential: the same TJ-valid traces replay cleanly with
        identical completed-join sets on real threads, one per task and
        pooled."""
        for seed in range(6):
            program = TraceProgram.from_trace(
                random_tj_valid_trace(random.Random(seed), 12, 15)
            )
            coop = program.run_sim("TJ-SP")
            assert coop.clean
            for runtime in BLOCKING:
                threaded = program.run_blocking(runtime("TJ-SP"))
                assert threaded.clean, runtime.__name__
                assert sorted(threaded.completed_joins) == sorted(coop.completed_joins)
                assert threaded.runtime.detector.stats.false_positives == 0

    def test_threaded_replay_avoids_planted_deadlocks(self):
        for seed in range(3):
            program = TraceProgram.from_trace(
                random_deadlocking_trace(random.Random(seed), 8, cycle_len=2)
            )
            for runtime in BLOCKING:
                outcome = program.run_blocking(runtime("TJ-SP"))
                # something was refused, nothing hung
                assert outcome.refusals, runtime.__name__

    def test_threaded_replay_join_on_root(self):
        program = TraceProgram.from_trace(
            [Init("r"), Fork("r", "a"), Join("a", "r"), Join("r", "a")]
        )
        for runtime in BLOCKING:
            outcome = program.run_blocking(runtime("TJ-SP"))
            assert outcome.refusals == [("a", "r", "JoinOnRoot")], runtime.__name__
            assert outcome.completed_joins == [("r", "a")], runtime.__name__

    @settings(max_examples=30, deadline=None)
    @given(trace=tj_valid_traces(max_tasks=12, max_joins=10))
    def test_kj_flags_bounded_by_offline_validation(self, trace):
        """Online KJ knows at least the formal at-position knowledge (a
        completed join transfers the joinee's *final* set), so at runtime
        KJ flags at most the joins the offline validator rejects — and
        with the fallback on, every flag is a counted false positive,
        never a refusal (the trace is TJ-valid, hence deadlock-free)."""
        from repro.formal.trace import KJFamily, validate_trace

        offline = validate_trace(trace, KJFamily)
        outcome = replay(trace, "KJ-SS")
        assert outcome.clean  # fallback admits everything: no deadlock
        online_fp = outcome.runtime.detector.stats.false_positives
        assert online_fp <= len(offline.rejected_joins)
