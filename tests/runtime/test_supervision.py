"""The supervision layer: join deadlines, the stall watchdog, registry.

These are the no-hang guarantees of ``repro.runtime.supervisor``: a join
with a deadline raises :class:`JoinTimeoutError` (leaving the Armus
graph and registry clean, joinable again later), and a *true* join cycle
— even under ``policy=None``, where the paper's avoidance machinery is
off — terminates every blocked task with
:class:`DeadlockDetectedError` carrying the cycle, instead of hanging.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import (
    DeadlockDetectedError,
    JoinTimeoutError,
    TaskFailedError,
)
from repro.runtime import Future, TaskHandle, TaskRuntime, WorkSharingRuntime
from repro.armus.graph import WaitsForGraph
from repro.runtime.supervisor import BlockedJoin, StallWatchdog

RUNTIMES = [
    ("threaded", lambda **kw: TaskRuntime(**kw)),
    ("pool", lambda **kw: WorkSharingRuntime(workers=2, max_workers=64, **kw)),
]


def _sleeper(seconds):
    time.sleep(seconds)
    return "done"


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestJoinTimeout:
    def test_timeout_raises_and_carries_the_edge(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            fut = rt.fork(_sleeper, 0.4)
            with pytest.raises(JoinTimeoutError) as info:
                fut.join(timeout=0.05)
            assert info.value.joinee is fut.task
            assert info.value.timeout == pytest.approx(0.05)
            # supervision state must not outlive the timed-out wait
            assert rt.blocked_joins() == []
            assert len(rt.detector.graph) == 0
            # the same future joins fine once the task terminates
            return fut.join()

        assert rt.run(program) == "done"

    def test_timeout_is_a_timeout_error(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            fut = rt.fork(_sleeper, 0.3)
            try:
                with pytest.raises(TimeoutError):
                    fut.join(timeout=0.01)
            finally:
                fut.join()

        rt.run(program)

    def test_default_join_timeout_applies(self, label, make_rt):
        rt = make_rt(policy="TJ-SP", default_join_timeout=0.05)

        def program():
            fut = rt.fork(_sleeper, 0.4)
            with pytest.raises(JoinTimeoutError) as info:
                fut.join()  # no explicit timeout: the default governs
            assert info.value.timeout == pytest.approx(0.05)
            # an explicit timeout overrides the default
            return fut.join(timeout=5.0)

        assert rt.run(program) == "done"

    def test_batch_timeout_shares_one_deadline(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            quick = rt.fork(_sleeper, 0.0)
            slow = rt.fork(_sleeper, 0.5)
            with pytest.raises(JoinTimeoutError):
                rt.join_batch([quick, slow], timeout=0.08)
            assert rt.blocked_joins() == []
            return slow.join()

        assert rt.run(program) == "done"

    def test_stats_count_the_timed_out_join_once(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            fut = rt.fork(_sleeper, 0.3)
            with pytest.raises(JoinTimeoutError):
                fut.join(timeout=0.01)
            fut.join()

        rt.run(program)
        # one check for the timed-out attempt, one for the successful one
        assert rt.verifier.stats.joins_checked == 2


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestWatchdog:
    def test_true_cycle_under_policy_none_is_diagnosed(self, label, make_rt):
        """The acceptance scenario: an unverified join cycle terminates."""
        rt = make_rt(policy=None, watchdog=0.02)
        box = {}
        released = threading.Event()

        def a():
            released.wait(5)
            return box["b"].join()

        def b():
            return box["a"].join()

        def program():
            box["a"] = rt.fork(a)
            box["b"] = rt.fork(b)
            released.set()
            with pytest.raises(TaskFailedError) as info:
                box["a"].join()
            with pytest.raises(TaskFailedError):
                box["b"].join()  # drain the other cycle member too
            return info.value.__cause__

        cause = rt.run(program)
        # One cycle member may observe the other's failure before its own
        # diagnosis, wrapping it in further TaskFailedError layers; the
        # root cause is always the watchdog's DeadlockDetectedError.
        while isinstance(cause, TaskFailedError):
            cause = cause.__cause__
        assert isinstance(cause, DeadlockDetectedError)
        assert len(cause.cycle) == 2
        assert {t.name for t in cause.cycle} == {
            box["a"].task.name,
            box["b"].task.name,
        }
        assert rt.watchdog.deadlocks_detected == 2  # both blocked tasks
        assert rt.blocked_joins() == []
        assert len(rt.detector.graph) == 0

    def test_no_false_positives_on_a_busy_program(self, label, make_rt):
        rt = make_rt(policy="TJ-SP", watchdog=0.005)

        def child(depth):
            if depth == 0:
                time.sleep(0.02)
                return 1
            return rt.fork(child, depth - 1).join() + 1

        assert rt.run(child, 4) == 5
        assert rt.watchdog.deadlocks_detected == 0

    def test_watchdog_disabled(self, label, make_rt):
        rt = make_rt(policy="TJ-SP", watchdog=False)
        assert rt.watchdog is None
        assert rt.run(lambda: rt.fork(_sleeper, 0.01).join()) == "done"


class TestWatchdogScan:
    """Synchronous scan() behaviour on a hand-built waits-for graph."""

    def test_pending_cycle_is_delivered_to_every_member(self):
        store = WaitsForGraph()
        a, b = TaskHandle(None, name="a"), TaskHandle(None, name="b")
        fut_a, fut_b = Future(None, a), Future(None, b)
        ra, rb = BlockedJoin(a, b, fut_b), BlockedJoin(b, a, fut_a)
        store.add(ra, rb)
        dog = StallWatchdog(store)
        delivered = dog.scan()
        assert len(delivered) == 1
        assert set(delivered[0]) == {a, b}
        assert isinstance(ra.exc, DeadlockDetectedError)
        assert isinstance(rb.exc, DeadlockDetectedError)
        assert set(ra.exc.cycle) == {a, b}
        assert dog.deadlocks_detected == 2

    def test_cycle_with_a_done_future_is_a_transient(self):
        store = WaitsForGraph()
        a, b = TaskHandle(None, name="a"), TaskHandle(None, name="b")
        fut_a, fut_b = Future(None, a), Future(None, b)
        fut_a._set_result(42)  # b's wait is about to unregister
        ra, rb = BlockedJoin(a, b, fut_b), BlockedJoin(b, a, fut_a)
        store.add(ra, rb)
        dog = StallWatchdog(store)
        assert dog.scan() == []
        assert ra.exc is None and rb.exc is None
        assert dog.deadlocks_detected == 0

    def test_acyclic_registry_is_clean(self):
        store = WaitsForGraph()
        a, b, c = (TaskHandle(None) for _ in range(3))
        store.add(BlockedJoin(a, b, Future(None, b)), BlockedJoin(b, c, Future(None, c)))
        dog = StallWatchdog(store)
        assert dog.scan() == []

    def test_unregister_removes_the_record(self):
        store = WaitsForGraph()
        joiner, joinee = TaskHandle(None, name="j"), TaskHandle(None)
        record = BlockedJoin(joiner, joinee, Future(None, joinee))
        store.add(record)
        assert store.entries() == [record]
        assert store.remove(joiner, joinee) is record
        assert len(store) == 0


class TestInterruptibleRootJoin:
    def test_keyboard_interrupt_reaches_a_blocked_root_join(self):
        """The root task's blocked join is a poll loop, not a bare
        Event.wait, so an injected KeyboardInterrupt surfaces promptly
        (this is what makes Ctrl-C work mid-join)."""
        rt = TaskRuntime(policy="TJ-SP")
        interrupted_after = []

        def program():
            fut = rt.fork(_sleeper, 1.0)
            timer = threading.Timer(0.05, __import__("_thread").interrupt_main)
            timer.start()
            start = time.monotonic()
            try:
                fut.join()
            except KeyboardInterrupt:
                interrupted_after.append(time.monotonic() - start)
                raise
            finally:
                timer.cancel()

        with pytest.raises(KeyboardInterrupt):
            rt.run(program)
        assert interrupted_after and interrupted_after[0] < 0.9
        assert rt.blocked_joins() == []
        assert len(rt.detector.graph) == 0


class TestVirtualClockSupervision:
    """The supervision clock hook: a virtual clock makes join deadlines
    fire deterministically, with no wall-clock waiting."""

    @pytest.mark.parametrize("name,make", RUNTIMES)
    def test_join_timeout_fires_in_virtual_time(self, name, make):
        from repro.runtime.sim import VirtualClock

        clock = VirtualClock()
        rt = make(policy="TJ-SP", clock=clock, watchdog=False)
        release = threading.Event()

        def slow():
            release.wait(30)  # real wait; the root releases it
            return "done"

        def main():
            future = rt.fork(slow)
            try:
                future.join(timeout=500.0)  # 500 *virtual* seconds
            except JoinTimeoutError:
                release.set()
                return "timeout"
            return "joined"

        t0 = time.monotonic()
        assert rt.run(main) == "timeout"
        # A wall clock would have waited 500s; the virtual clock jumps.
        assert time.monotonic() - t0 < 10.0
        assert clock.monotonic() >= 500.0

    def test_timed_out_join_is_retryable_under_virtual_time(self):
        from repro.runtime.sim import VirtualClock

        rt = TaskRuntime("TJ-SP", clock=VirtualClock(), watchdog=False)
        release = threading.Event()

        def slow():
            release.wait(30)
            return "done"

        def main():
            future = rt.fork(slow)
            try:
                future.join(timeout=5.0)
            except JoinTimeoutError:
                release.set()
            # Virtual waits consume their whole timeout instantly, so
            # give the real worker thread wall time to finish before the
            # retry (a timed-out join must stay joinable).
            while not future.done():
                time.sleep(0.01)
            return future.join(timeout=30.0)

        assert rt.run(main) == "done"
