"""The batch join API: ``join_batch`` on the threaded and pool runtimes.

One ``Verifier.check_joins`` call verifies a whole group of joins for
stable (TJ/none) policies; learning (KJ) policies transparently fall
back to per-future verification.  Results must match sequential joins
exactly — order, failures, policy faults and statistics included.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.constructs import finish
from repro.errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    PolicyViolationError,
    TaskFailedError,
)
from repro.runtime import TaskRuntime, TaskState, WorkSharingRuntime, current_task


def _square(x):
    return x * x


def _boom():
    raise ValueError("boom")


def _gated(gate, x):
    assert gate.wait(5.0), "gate never opened"
    return x * x


def _poll(predicate, what, limit=5.0):
    """Bounded poll: wait until *predicate()* holds (orders the tasks
    without sleeping a fixed time)."""
    deadline = time.monotonic() + limit
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


RUNTIMES = [
    ("threaded", lambda **kw: TaskRuntime(**kw)),
    ("pool", lambda **kw: WorkSharingRuntime(workers=2, max_workers=64, **kw)),
]


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestJoinBatch:
    def test_results_in_input_order(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_square, i) for i in range(8)]
            return rt.join_batch(futures)

        assert rt.run(program) == [i * i for i in range(8)]

    def test_empty_batch(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")
        assert rt.run(lambda: rt.join_batch([])) == []

    def test_batched_stats_match_sequential(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_square, i) for i in range(6)]
            rt.join_batch(futures)

        rt.run(program)
        stats = rt.verifier.stats
        assert stats.forks == 7  # root + 6 children
        assert stats.joins_checked == 6
        assert stats.joins_rejected == 0

    def test_return_exceptions_collects_failures_in_place(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_square, 3), rt.fork(_boom), rt.fork(_square, 4)]
            return rt.join_batch(futures, return_exceptions=True)

        nine, failure, sixteen = rt.run(program)
        assert (nine, sixteen) == (9, 16)
        assert isinstance(failure, TaskFailedError)

    def test_failure_raises_without_return_exceptions(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_boom), rt.fork(_square, 4)]
            try:
                rt.join_batch(futures)
            finally:
                # drain the sibling so the pool can shut down cleanly
                futures[1].join()

        with pytest.raises(TaskFailedError):
            rt.run(program)

    def test_policy_fault_in_batch_without_fallback(self, label, make_rt):
        """An older sibling joining a younger one faults mid-batch."""
        rt = make_rt(policy="TJ-SP", fallback=False)

        def child(sibling_future):
            if sibling_future is not None:
                rt.join_batch([sibling_future])
            return 1

        def program():
            older_box = []

            def older():
                # forked first => TJ-greater; joining the younger sibling
                # (forked later, hence TJ-smaller) violates the order
                while not older_box:
                    pass
                return rt.join_batch([older_box[0]])

            older_fut = rt.fork(older)
            younger_fut = rt.fork(_square, 5)
            older_box.append(younger_fut)
            try:
                older_fut.join()
            finally:
                younger_fut.join()

        with pytest.raises(TaskFailedError) as info:
            rt.run(program)
        assert isinstance(info.value.__cause__, PolicyViolationError)

    def test_kj_policy_uses_per_future_fallback(self, label, make_rt):
        """Learning policies still verify batches correctly, one by one."""
        rt = make_rt(policy="KJ-VC")

        def program():
            futures = [rt.fork(_square, i) for i in range(5)]
            return rt.join_batch(futures)

        assert rt.run(program) == [0, 1, 4, 9, 16]
        assert rt.verifier.stats.joins_checked == 5

    def test_foreign_future_rejected(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")
        other = TaskRuntime(policy="TJ-SP")

        def outer():
            fut = other.fork(_square, 2)
            try:
                from repro.errors import RuntimeStateError

                with pytest.raises(RuntimeStateError):
                    rt.join_batch([fut])
            finally:
                fut.join()
            return True

        assert other.run(outer)


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestFinishUsesBatchDrain:
    def test_finish_results_unchanged(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            with finish(rt) as scope:
                for i in range(10):
                    scope.async_(_square, i)
            return sorted(scope.results)

        assert rt.run(program) == sorted(i * i for i in range(10))

    def test_finish_collects_all_failures(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            try:
                with finish(rt) as scope:
                    scope.async_(_boom)
                    scope.async_(_square, 2)
                    scope.async_(_boom)
            except TaskFailedError:
                return len(scope.failures)
            return 0

        assert rt.run(program) == 2

    def test_finish_batch_verification_counts(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            with finish(rt) as scope:
                for i in range(7):
                    scope.async_(_square, i)
            return True

        assert rt.run(program)
        assert rt.verifier.stats.joins_checked == 7


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestBatchIndex:
    """``TaskFailedError.batch_index`` pinpoints the failing position."""

    def test_raised_failure_carries_its_index(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_square, 1), rt.fork(_boom), rt.fork(_square, 2)]
            try:
                rt.join_batch(futures)
            except TaskFailedError as exc:
                return exc.batch_index
            finally:
                for fut in futures:
                    if not fut.done():
                        fut._wait(5.0)

        assert rt.run(program) == 1

    def test_collected_failures_carry_their_indices(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            futures = [rt.fork(_boom), rt.fork(_square, 3), rt.fork(_boom)]
            results = rt.join_batch(futures, return_exceptions=True)
            return [
                r.batch_index if isinstance(r, TaskFailedError) else r
                for r in results
            ]

        assert rt.run(program) == [0, 9, 2]

    def test_individual_join_has_no_batch_index(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            fut = rt.fork(_boom)
            try:
                fut.join()
            except TaskFailedError as exc:
                return exc.batch_index

        assert rt.run(program) is None


class _CountingLock:
    """A lock that counts its acquisitions (context-manager use only)."""

    def __init__(self):
        self._lock, self.acquisitions = threading.Lock(), 0

    def __enter__(self):
        self._lock.acquire()
        self.acquisitions += 1

    def __exit__(self, *exc_info):
        self._lock.release()


def _opener(gate, ready, what, on_ready=lambda: None):
    """A started thread that opens *gate* once *ready()* holds, calling
    *on_ready* at that moment."""

    def run():
        try:
            _poll(ready, what)
            on_ready()
        finally:
            gate.set()

    thread = threading.Thread(target=run)
    thread.start()
    return thread


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestOneEdgeStore:
    """Every blocked join, batch pre-waits included, lives in the one
    waits-for graph Armus searches."""

    def test_batch_holding_one_edge_twice(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")
        gate = threading.Event()

        def program():
            f, g = rt.fork(_gated, gate, 3), rt.fork(_gated, gate, 4)
            opener = _opener(gate, lambda: len(rt.blocked_joins()) == 3, "3 parked edges")
            try:
                return rt.join_batch([f, g, f])
            finally:
                opener.join(5.0)

        assert rt.run(program) == [9, 16, 9]
        assert rt.blocked_joins() == [] and len(rt.detector.graph) == 0

    def test_one_blocking_join_takes_two_acquisitions_of_one_lock(self, label, make_rt):
        rt = make_rt(policy="TJ-SP", watchdog=False)
        assert rt.detector._lock is rt.detector.graph.lock
        lock = rt.detector._lock = rt.detector.graph._lock = _CountingLock()
        gate, seen = threading.Event(), []

        def program():
            me, child = current_task(), rt.fork(_gated, gate, 7)

            def read():  # the runtime's own reader takes the same lock
                before = lock.acquisitions
                seen.append((len(rt.blocked_joins()), lock.acquisitions - before))

            blocked = lambda: me.state is TaskState.BLOCKED  # noqa: E731
            opener = _opener(gate, blocked, "the root to block", read)
            try:
                return child.join()
            finally:
                opener.join(5.0)

        assert rt.run(program) == 49
        assert seen == [(1, 1)]
        # register through the cycle check, release; plus the read above
        assert lock.acquisitions == 2 + 1

    def test_parked_prewait_edges_are_in_the_armus_graph(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")
        graph, gate, parked = rt.detector.graph, threading.Event(), []

        def program():
            futures = [rt.fork(_gated, gate, i) for i in range(4)]
            snap = lambda: parked.extend(graph.edges())  # noqa: E731
            opener = _opener(gate, lambda: len(graph) == 4, "4 parked edges", snap)
            try:
                return rt.join_batch(futures), {(current_task(), f.task) for f in futures}
            finally:
                opener.join(5.0)

        results, expected = rt.run(program)
        assert results == [0, 1, 4, 9]
        assert len(parked) == 4 and set(parked) == expected
        assert len(graph) == 0


@pytest.mark.parametrize("watchdog", [True, False], ids=["watchdog", "no-watchdog"])
@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
def test_flagged_join_closing_a_cycle_through_a_prewait_is_avoided(label, make_rt, watchdog):
    """Root forks ``a`` then ``b``; ``b`` forks ``c`` (held) and parks in
    ``join_batch([a, c])`` (both TJ-permitted).  Once both of ``b``'s
    edges are blocked, ``a`` joins ``b``, which TJ flags (``a`` is the
    older sibling) and which closes ``a -> b -> a`` through the pre-wait.
    Armus must see the pre-wait's edges and refuse it, exactly as it
    would refuse it against ``b``'s sequential joins."""
    rt = make_rt(policy="TJ-SP", watchdog=watchdog)
    box, outcomes = {}, {}
    ready, release_c = threading.Event(), threading.Event()

    def outcome(join):
        try:
            join()
            return "joined"
        except DeadlockAvoidedError:
            return "avoided"
        except DeadlockDetectedError:
            return "detected"

    def a_body():
        ready.wait(5.0)
        b = box["b"].task
        try:
            _poll(lambda: sum(r.joiner is b for r in rt.blocked_joins()) == 2, "b to park")
            outcomes["a"] = outcome(box["b"].join)
        finally:
            release_c.set()

    def b_body():
        c = rt.fork(release_c.wait, 10.0)
        outcomes["b"] = outcome(lambda: rt.join_batch([box["a"], c]))

    def main():
        box["a"] = rt.fork(a_body)
        box["b"] = rt.fork(b_body)  # b_body reads box["a"]
        ready.set()
        box["a"].join()
        box["b"].join()

    runner = threading.Thread(target=rt.run, args=(main,), daemon=True)
    runner.start()
    runner.join(10.0)
    if runner.is_alive():  # unwind the deadlock so the test fails, not hangs
        for future in box.values():
            future.cancel()
        release_c.set()
        runner.join(5.0)
        pytest.fail(f"the program hung; outcomes so far {outcomes}")
    assert outcomes == {"a": "avoided", "b": "joined"}
    assert rt.detector.stats.deadlocks_avoided == 1
    assert rt.watchdog is None or rt.watchdog.deadlocks_detected == 0
    assert rt.blocked_joins() == [] and rt.detector.live_forced_edges == 0
