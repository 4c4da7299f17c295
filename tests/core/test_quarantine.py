"""The verifier's policy-quarantine fault boundary (all three fail modes).

A :class:`PolicyViolationError` is a *verdict*; any other exception out
of a policy call is a *bug*.  These tests drive a deliberately broken
policy through the :class:`~repro.core.verifier.Verifier` and pin the
contract of each ``fail_mode``: ``"raise"`` propagates (seed
behaviour), ``"open"`` quarantines and degrades to permit-everything
(with Armus carrying soundness — proven end-to-end at the bottom),
``"closed"`` fails every later policy-facing call deterministically.
"""

from __future__ import annotations

import warnings

import pytest

from repro.core.policy import make_policy
from repro.core.verifier import FAIL_MODES, Verifier
from repro.errors import (
    DeadlockAvoidedError,
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
    PolicyViolationError,
)


@pytest.fixture(autouse=True)
def _silence_expected_quarantine_warnings():
    """Every test here trips quarantine on purpose; tests that assert on
    the warning open their own ``catch_warnings(record=True)`` scope."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PolicyQuarantineWarning)
        yield


class BrokenPolicy:
    """Wraps a real policy; every call after arming raises ZeroDivisionError."""

    name = "broken"
    stable_permits = False

    def __init__(self, crash_sites=("permits",)):
        self.inner = make_policy("TJ-SP")
        self.crash_sites = crash_sites
        self.calls: list[str] = []

    def _site(self, site):
        self.calls.append(site)
        if site in self.crash_sites:
            raise ZeroDivisionError(f"synthetic bug in {site}")

    def add_child(self, parent):
        self._site("add_child")
        return self.inner.add_child(parent)

    def permits(self, joiner, joinee):
        self._site("permits")
        return self.inner.permits(joiner, joinee)

    def permits_many(self, joiner, joinees):
        self._site("permits")
        return [self.inner.permits(joiner, j) for j in joinees]

    def on_join(self, joiner, joinee):
        self._site("on_join")

    def space_units(self):
        return 0


def _forked_pair(verifier):
    root = verifier.on_init()
    a = verifier.on_fork(root)
    b = verifier.on_fork(root)
    return root, a, b


def test_fail_mode_is_validated():
    with pytest.raises(ValueError):
        Verifier(make_policy("TJ-SP"), fail_mode="explode")
    for mode in FAIL_MODES:
        assert Verifier(make_policy("TJ-SP"), fail_mode=mode).fail_mode == mode


def test_raise_mode_propagates_the_bug_unchanged():
    v = Verifier(BrokenPolicy(), fail_mode="raise")
    root, a, b = _forked_pair(v)
    with pytest.raises(ZeroDivisionError):
        v.check_join(a, b)
    assert not v.quarantined
    assert v.stats.policy_faults == 0
    # the aborted check never counted: the join did not happen
    assert v.stats.joins_checked == 0


def test_violation_verdicts_pass_through_every_mode():
    """A False verdict (and its fault) is not an internal error."""
    for mode in FAIL_MODES:
        v = Verifier(make_policy("TJ-SP"), fail_mode=mode)
        root, a, b = _forked_pair(v)
        assert not v.check_join(a, b)  # siblings: TJ-SP denies
        with pytest.raises(PolicyViolationError):
            v.require_join(a, b)
        assert not v.quarantined
        assert v.stats.policy_faults == 0


class TestFailOpen:
    def test_quarantines_and_permits_everything_after(self):
        policy = BrokenPolicy()
        v = Verifier(policy, fail_mode="open")
        root, a, b = _forked_pair(v)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert v.check_join(a, b) is True  # bug swallowed, degraded verdict
        assert [w for w in caught if issubclass(w.category, PolicyQuarantineWarning)]
        assert v.quarantined
        q = v.quarantine_error
        assert isinstance(q, PolicyQuarantinedError)
        assert q.site == "permits"
        assert "ZeroDivisionError" in (q.original or "")
        assert isinstance(q.__cause__, ZeroDivisionError)
        # every later call bypasses the policy entirely
        calls_before = len(policy.calls)
        child = v.on_fork(a)
        assert v.check_join(a, child) is True
        v.on_join_completed(a, child)
        assert len(policy.calls) == calls_before
        assert v.stats.policy_faults == 1

    def test_warning_fires_once(self):
        v = Verifier(BrokenPolicy(), fail_mode="open")
        root, a, b = _forked_pair(v)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            v.check_join(a, b)
            v.check_join(b, a)
        hits = [w for w in caught if issubclass(w.category, PolicyQuarantineWarning)]
        assert len(hits) == 1

    def test_stats_keep_counting_degraded_verdicts(self):
        v = Verifier(BrokenPolicy(), fail_mode="open")
        root, a, b = _forked_pair(v)
        v.check_join(a, b)
        v.check_join(b, a)
        assert v.stats.joins_checked == 2
        assert v.stats.joins_rejected == 0  # degraded: everything permitted

    def test_fork_sites_quarantine_too(self):
        v = Verifier(BrokenPolicy(crash_sites=("add_child",)), fail_mode="open")
        root = v.on_init()  # the very first policy call crashes
        assert v.quarantined
        assert v.quarantine_error.site == "add_child"
        child = v.on_fork(root)  # placeholder vertex, no policy involved
        assert v.check_join(root, child) is True
        assert v.stats.forks == 2

    def test_batch_checks_degrade_as_a_unit(self):
        v = Verifier(BrokenPolicy(), fail_mode="open")
        root, a, b = _forked_pair(v)
        c = v.on_fork(root)
        assert v.check_joins(a, [b, c]) == [True, True]
        assert v.stats.joins_checked == 2


class TestFailClosed:
    def test_first_bug_raises_and_sticks(self):
        v = Verifier(BrokenPolicy(), fail_mode="closed")
        root, a, b = _forked_pair(v)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PolicyQuarantineWarning)
            with pytest.raises(PolicyQuarantinedError) as info:
                v.check_join(a, b)
        first = info.value
        assert isinstance(first.__cause__, ZeroDivisionError)
        # deterministic refusal on every later policy-facing call
        for attempt in (lambda: v.check_join(b, a), lambda: v.on_fork(a)):
            with pytest.raises(PolicyQuarantinedError) as again:
                attempt()
            assert again.value is first  # the stored diagnosis, not a new one
        assert v.stats.policy_faults == 1


def _mutual_joins(policy, join):
    """Fail-open end-to-end: two tasks join each other (plus a leaf)
    through *join*, after the policy is quarantined; returns the runtime
    and each member's outcome."""
    import threading

    from repro.errors import DeadlockDetectedError
    from repro.runtime.threaded import TaskRuntime

    rt = TaskRuntime(policy=policy, fail_mode="open", on_unjoined_failure="ignore")
    outcomes: dict[int, str] = {}

    def main():
        box: dict = {}
        go = threading.Event()  # set only after every future is in the box

        def member(idx):
            go.wait()
            try:
                join(rt, box[1 - idx], box["leaf"])
                outcomes[idx] = "joined"
            except DeadlockAvoidedError:
                outcomes[idx] = "avoided"
            except DeadlockDetectedError:
                outcomes[idx] = "detected"

        box["leaf"] = rt.fork(lambda: go.wait())
        box[0] = rt.fork(member, 0)
        box[1] = rt.fork(member, 1)
        go.set()
        for f in box.values():
            f.join()

    rt.run(main)
    assert rt.verifier.quarantined
    assert len(rt.detector.graph) == 0 and rt.detector.live_forced_edges == 0
    return rt, sorted(outcomes.values())


def test_degraded_run_still_avoids_a_true_deadlock():
    """With the policy quarantined, the Armus fallback force-checks every
    blocking join and refuses the edge that would close a real cycle."""
    rt, outcomes = _mutual_joins(BrokenPolicy(), lambda rt, other, leaf: other.join())
    assert outcomes == ["avoided", "joined"]
    assert rt.detector.stats.deadlocks_avoided == 1


class StableBrokenPolicy(BrokenPolicy):
    """A broken policy that claims stable verdicts, so ``join_batch``
    precomputes its (degraded) permits and parks in the pre-wait."""

    stable_permits = True


def test_degraded_batch_prewaits_still_avoid_a_true_deadlock():
    """The same with ``join_batch([other, leaf])``: both degraded batches
    park in the pre-wait, whose edges face the forced check too, so the
    second batch backs off and its sequential join is refused — the
    outcome of sequential joins, not a watchdog diagnosis."""
    rt, outcomes = _mutual_joins(
        StableBrokenPolicy(), lambda rt, other, leaf: rt.join_batch([other, leaf])
    )
    assert outcomes == ["avoided", "joined"]
    assert rt.detector.stats.deadlocks_avoided == 1
    assert rt.watchdog.deadlocks_detected == 0
