"""Task retry with backoff: determinism, safety, and composition.

The load-bearing property is **no widening**: a retried task is a fresh
fork (a new vertex under the same parent), so the set of tasks
permitted to join the retry can only *shrink* relative to the failed
attempt — verified differentially against the policy family on random
fork trees.  The rest pins the backoff schedule (deterministic per
seed), the retryable filter (verdicts, cancellations and deadlock
diagnoses never retry), and composition with the supervision layer
(join timeouts, the stall watchdog, cancellation).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.policy import POLICY_REGISTRY, make_policy
from repro.errors import (
    DeadlockDetectedError,
    JoinTimeoutError,
    PolicyViolationError,
    TaskCancelledError,
)
from repro.runtime import RetryPolicy, current_task
from repro.runtime.retry import DEFAULT_NON_RETRYABLE
from repro.runtime.threaded import TaskRuntime


# ----------------------------------------------------------------------
# the RetryPolicy object itself
# ----------------------------------------------------------------------
class TestRetryPolicySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(0)

    def test_backoff_is_exponential_and_capped(self):
        spec = RetryPolicy(base_delay=0.01, multiplier=2.0, max_delay=0.05, jitter=0.0)
        assert spec.delay(1) == pytest.approx(0.01)
        assert spec.delay(2) == pytest.approx(0.02)
        assert spec.delay(3) == pytest.approx(0.04)
        assert spec.delay(4) == pytest.approx(0.05)  # capped
        assert spec.delay(9) == pytest.approx(0.05)

    def test_jitter_is_deterministic_per_seed_site_attempt(self):
        a = RetryPolicy(seed=7, jitter=0.5)
        b = RetryPolicy(seed=7, jitter=0.5)
        c = RetryPolicy(seed=8, jitter=0.5)
        for attempt in (1, 2, 3):
            assert a.delay(attempt, site="f") == b.delay(attempt, site="f")
        # different seeds and different sites draw different factors
        assert any(
            a.delay(k, site="f") != c.delay(k, site="f") for k in (1, 2, 3)
        )
        assert any(
            a.delay(k, site="f") != a.delay(k, site="g") for k in (1, 2, 3)
        )
        # jitter stays within the amplitude band around the raw delay
        raw = RetryPolicy(seed=7, jitter=0.0)
        for attempt in (1, 2, 3):
            lo, hi = 0.5 * raw.delay(attempt), 1.5 * raw.delay(attempt)
            assert lo <= a.delay(attempt, site="f") <= hi

    def test_retryable_filter(self):
        spec = RetryPolicy()
        assert spec.retryable(RuntimeError("transient"))
        for exc in (
            TaskCancelledError(),
            PolicyViolationError("TJ-SP", "a", "b"),
            DeadlockDetectedError(),
        ):
            assert not spec.retryable(exc)
        # every default-non-retryable class is honoured
        assert all(issubclass(t, BaseException) for t in DEFAULT_NON_RETRYABLE)
        narrow = RetryPolicy(retry_on=(KeyError,))
        assert narrow.retryable(KeyError("k"))
        assert not narrow.retryable(RuntimeError("other type"))


# ----------------------------------------------------------------------
# no widening: the differential property against the policy family
# ----------------------------------------------------------------------
def _random_tree(policy, seed, size=14):
    """Grow a random fork tree; returns the list of vertices."""
    rng = random.Random(seed)
    root = policy.add_child(None)
    vertices = [root]
    for _ in range(size):
        parent = rng.choice(vertices)
        vertices.append(policy.add_child(parent))
    return vertices


@pytest.mark.parametrize("policy_name", sorted(p for p in POLICY_REGISTRY if p != "none"))
def test_retry_never_widens_the_permitted_join_relation(policy_name):
    """For every vertex q: permits(q, attempt2) implies permits(q, attempt1).

    attempt1/attempt2 model a failed task and its retry — two forks under
    the same parent, the retry strictly later.  If a retry ever *widened*
    the relation, a join refused against the original could be permitted
    against the retry, losing the policy's soundness argument.
    """
    for seed in range(6):
        policy = make_policy(policy_name)
        vertices = _random_tree(policy, seed)
        parent = random.Random(1000 + seed).choice(vertices)
        attempt1 = policy.add_child(parent)
        attempt2 = policy.add_child(parent)  # the retry: a later sibling
        for q in vertices:
            if policy.permits(q, attempt2):
                assert policy.permits(q, attempt1), (
                    f"{policy_name} seed {seed}: retry widened the relation "
                    f"for joiner {q!r}"
                )


# ----------------------------------------------------------------------
# retries on the live runtime
# ----------------------------------------------------------------------
def _flaky(failures, exc=RuntimeError):
    """A task body that fails its first *failures* invocations."""
    state = {"calls": 0}

    def body():
        state["calls"] += 1
        if state["calls"] <= failures:
            raise exc(f"attempt {state['calls']} down")
        return state["calls"]

    return body, state


def test_fork_retries_to_success():
    rt = TaskRuntime(policy="TJ-SP")
    body, state = _flaky(2)
    spec = RetryPolicy(max_attempts=3, base_delay=0.0005, max_delay=0.002)

    def main():
        return rt.fork(body, retry=spec).join()

    assert rt.run(main) == 3  # third invocation answered
    assert state["calls"] == 3
    assert rt.tasks_retried == 2
    # every attempt was a *fresh fork*, re-verified like a younger sibling
    assert rt.verifier.stats.forks == 1 + 1 + 2  # root + child + 2 retries
    assert rt.verifier.stats.joins_checked == 1


def test_attempt_budget_exhausted_fails_with_last_error():
    rt = TaskRuntime(policy="TJ-SP", on_unjoined_failure="ignore")
    body, state = _flaky(99)
    spec = RetryPolicy(max_attempts=2, base_delay=0.0005, max_delay=0.002)

    def main():
        with pytest.raises(Exception) as info:
            rt.fork(body, retry=spec).join()
        assert "attempt 2 down" in str(info.value)

    rt.run(main)
    assert state["calls"] == 2
    assert rt.tasks_retried == 1


def test_non_retryable_failure_is_final():
    rt = TaskRuntime(policy="TJ-SP", on_unjoined_failure="ignore")
    body, state = _flaky(99, exc=TaskCancelledError)
    spec = RetryPolicy(max_attempts=5, base_delay=0.0005)

    def main():
        with pytest.raises(Exception):
            rt.fork(body, retry=spec).join()

    rt.run(main)
    assert state["calls"] == 1
    assert rt.tasks_retried == 0


def test_cancelled_task_is_not_retried():
    """Cancellation observed at failure time wins over the retry budget."""
    rt = TaskRuntime(policy="TJ-SP", on_unjoined_failure="ignore")
    calls = []

    def body():
        calls.append(1)
        current_task().cancel_token.cancel()  # cancel arrives mid-body
        raise RuntimeError("failed after cancellation")

    spec = RetryPolicy(max_attempts=5, base_delay=0.0005)

    def main():
        with pytest.raises(Exception):
            rt.fork(body, retry=spec).join()

    rt.run(main)
    assert len(calls) == 1
    assert rt.tasks_retried == 0


def test_join_timeout_then_retry_then_success_leaves_nothing_behind():
    """timeout -> retry -> success, with the watchdog on: afterwards the
    waits-for graph is empty and exactly one retry is on record
    (satellite: watchdog x retry interaction)."""
    rt = TaskRuntime(policy="TJ-SP", watchdog=0.01)
    release = threading.Event()
    attempts = []

    def slow_grandchild():
        release.wait(2.0)
        return "done"

    def child():
        attempts.append(1)
        timeout = 0.02 if len(attempts) == 1 else 2.0
        if len(attempts) == 2:
            release.set()  # second attempt lets the grandchild finish
        return rt.fork(slow_grandchild).join(timeout=timeout)

    spec = RetryPolicy(max_attempts=2, base_delay=0.0005, max_delay=0.002)

    def main():
        return rt.fork(child, retry=spec).join()

    assert rt.run(main) == "done"
    assert len(attempts) == 2
    assert rt.tasks_retried == 1
    assert rt.watchdog is not None and rt.watchdog.deadlocks_detected == 0
    assert len(rt.detector.graph) == 0
    assert rt.blocked_joins() == []
    assert rt.detector.live_forced_edges == 0


def test_a_join_blocked_across_a_retry_turns_forced_while_stale():
    """A younger sibling ``u`` blocked on ``t`` was permitted against
    ``t``'s first vertex; the retry makes ``t`` the youngest child, so
    that verdict goes stale and the blocked edge must turn forced (Armus
    then checks every join) for as long as the join stays blocked."""
    import time

    rt = TaskRuntime(policy="TJ-SP")
    fail_now, attempts, forced_during_retry = threading.Event(), [], []

    def t_body():
        attempts.append(1)
        if len(attempts) == 1:
            fail_now.wait(5.0)
            raise ValueError("first attempt")
        forced_during_retry.append(rt.detector.live_forced_edges)
        return "ok"

    def main():
        t = rt.fork(t_body, retry=RetryPolicy(max_attempts=2, base_delay=0.0005))
        u = rt.fork(lambda: t.join())  # older sibling: permitted
        deadline = time.monotonic() + 5.0
        while not any(r.joinee is t.task for r in rt.blocked_joins()):
            assert time.monotonic() < deadline, "u never blocked on t"
            time.sleep(0.001)
        fail_now.set()
        return u.join()

    assert rt.run(main) == "ok"
    assert forced_during_retry == [1]
    assert rt.detector.live_forced_edges == 0


def test_finish_forwards_retry():
    from repro.constructs import finish

    rt = TaskRuntime(policy="TJ-SP")
    body, state = _flaky(1)
    spec = RetryPolicy(max_attempts=2, base_delay=0.0005)

    def main():
        with finish(rt, retry=spec) as scope:
            scope.async_(body)

    rt.run(main)
    assert state["calls"] == 2
    assert rt.tasks_retried == 1
