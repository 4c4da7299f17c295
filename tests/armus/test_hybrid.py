"""Unit tests for the hybrid (policy + Armus) verifier and trace replay."""

import random

import pytest

from repro.armus.hybrid import HybridVerifier, replay_trace
from repro.core import make_policy
from repro.formal.actions import Fork, Init, Join
from repro.formal.generators import random_tj_valid_trace
from repro.kj import KJSnapshotSets


class TestHybridVerifier:
    def test_permitted_join_no_fallback_activity(self):
        h = HybridVerifier(make_policy("TJ-SP"))
        root_v = h.on_init()
        child_v = h.on_fork(root_v)
        blocked = h.begin_join("root", "child", root_v, child_v, joinee_done=False)
        assert blocked
        assert h.detector.stats.false_positives == 0
        h.end_join("root", "child")
        h.on_join_completed(root_v, child_v)

    def test_flagged_join_on_done_task_is_vacuous_false_positive(self):
        h = HybridVerifier(make_policy("TJ-SP"))
        root_v = h.on_init()
        child_v = h.on_fork(root_v)
        # child joining root is TJ-invalid, but the root has "terminated"
        blocked = h.begin_join("child", "root", child_v, root_v, joinee_done=True)
        assert not blocked
        assert h.detector.stats.false_positives == 1
        assert h.verifier.stats.joins_rejected == 1

    def test_name_and_policy_accessors(self):
        policy = KJSnapshotSets()
        h = HybridVerifier(policy)
        assert h.name == "KJ-SS"
        assert h.policy is policy


class TestReplayTrace:
    def test_tj_valid_trace_has_no_false_positives_under_tj(self):
        trace = random_tj_valid_trace(random.Random(0), 30, 40)
        h = replay_trace(trace, make_policy("TJ-SP"))
        assert h.verifier.stats.joins_rejected == 0
        assert h.detector.stats.false_positives == 0

    def test_grandchild_joins_trip_kj_but_not_tj(self):
        trace = [
            Init("r"),
            Fork("r", "c"),
            Fork("c", "g"),
            Join("r", "g"),  # KJ-invalid, TJ-valid
            Join("r", "c"),
        ]
        kj = replay_trace(trace, make_policy("KJ-SS"))
        tj = replay_trace(trace, make_policy("TJ-SP"))
        assert kj.detector.stats.false_positives == 1
        assert tj.detector.stats.false_positives == 0

    def test_kj_learn_applied_during_replay(self):
        trace = [
            Init("r"),
            Fork("r", "c"),
            Fork("c", "g"),
            Join("r", "c"),  # learn: r now knows g
            Join("r", "g"),  # no longer flagged
        ]
        kj = replay_trace(trace, make_policy("KJ-SS"))
        assert kj.detector.stats.false_positives == 0

    def test_replay_counts_all_joins(self):
        trace = random_tj_valid_trace(random.Random(1), 20, 25)
        n_joins = sum(isinstance(a, Join) for a in trace)
        h = replay_trace(trace, make_policy("KJ-VC"))
        assert h.verifier.stats.joins_checked == n_joins
