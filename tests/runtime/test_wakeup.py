"""Wakeup-latency and no-busy-wait properties of the event-driven
supervision layer.

The contract: task completion, cancellation and watchdog verdicts
deliver *targeted* wakes, so a blocked join (off the main thread)
performs O(1) wakeups and unblocks in far less than the 50 ms maximum
poll tick of the poll-loop protocol the event rewrite replaced.
"""

import threading
import time

from repro import TaskRuntime

#: the old protocol's maximum poll tick — the latency bar to beat
OLD_MAX_TICK = 0.05


def _capture_records(rt, joiner_task, expected, deadline=2.0):
    """Poll the registry until *expected* records of *joiner_task* show up."""
    limit = time.monotonic() + deadline
    records = []
    while len(records) < expected and time.monotonic() < limit:
        records = [r for r in rt.blocked_joins() if r.joiner is joiner_task]
        time.sleep(0.002)
    return records


class TestWakeupLatency:
    def test_join_unblocks_fast_after_completion(self):
        """A blocked joiner resumes well inside the old 50 ms max tick."""
        rt = TaskRuntime(policy="TJ-SP")
        release = threading.Event()

        def main():
            slow = rt.fork(lambda: (release.wait(2.0), time.perf_counter())[1])

            def waiter():
                finished_at = slow.join()
                return time.perf_counter() - finished_at

            w = rt.fork(waiter)
            time.sleep(0.15)  # the waiter is genuinely blocked by now
            release.set()
            return w.join()

        latency = rt.run(main)
        assert latency < OLD_MAX_TICK / 2, (
            f"join wakeup took {latency * 1e3:.1f}ms; targeted notify "
            f"should land far inside the old {OLD_MAX_TICK * 1e3:.0f}ms tick"
        )

    def test_cancellation_unblocks_fast(self):
        """Cancellation is a targeted wake too, not a next-tick discovery."""
        rt = TaskRuntime(policy="TJ-SP")

        def main():
            never = rt.fork(lambda: threading.Event().wait(5.0))

            def waiter():
                t0 = time.perf_counter()
                try:
                    never.join()
                except BaseException:
                    return time.perf_counter() - t0
                return None

            w = rt.fork(waiter)
            time.sleep(0.15)
            cancelled_at = time.perf_counter()
            w.cancel()
            elapsed = w.join()
            return elapsed is not None and (time.perf_counter() - cancelled_at)

        latency = rt.run(main)
        assert latency is not False
        assert latency < OLD_MAX_TICK / 2


class TestWakeupCounts:
    def test_blocked_join_performs_O1_wakeups(self):
        """One targeted wake for a long block — not O(duration/tick)."""
        rt = TaskRuntime(policy="TJ-SP")

        def main():
            slow = rt.fork(lambda: time.sleep(0.3) or 7)

            def waiter():
                return slow.join()

            w = rt.fork(waiter)
            records = _capture_records(rt, w.task, 1)
            assert w.join() == 7
            return records

        records = rt.run(main)
        assert len(records) == 1
        # the completion wake and at most a spurious straggler
        assert records[0].wakeups <= 2

    def test_batch_prewait_shares_one_wake_event(self):
        """A known-permitted batch blocks on one latch: one shared event,
        a single wakeup delivered when the last joinee completes."""
        rt = TaskRuntime(policy="TJ-SP")

        def main():
            gate = threading.Event()
            slows = [rt.fork(lambda i=i: (gate.wait(2.0), i)[1]) for i in range(4)]

            def harvester():
                return rt.join_batch(slows)

            h = rt.fork(harvester)
            records = _capture_records(rt, h.task, 4)
            gate.set()
            assert h.join() == [0, 1, 2, 3]
            return records

        records = rt.run(main)
        assert len(records) == 4
        assert len({id(r._wake) for r in records}) == 1
        assert all(r.wakeups <= 2 for r in records)

    def test_finish_drain_single_wakeup(self):
        """The finish drain rides the same batch latch: the draining task
        blocks once for the whole scope, not once per child."""
        from repro.constructs import finish

        rt = TaskRuntime(policy="TJ-SP")

        def main():
            gate = threading.Event()

            def scoped():
                with finish(rt) as scope:
                    for i in range(4):
                        scope.async_(lambda i=i: (gate.wait(2.0), i)[1])
                return sorted(scope.results)

            f = rt.fork(scoped)
            records = _capture_records(rt, f.task, 4)
            gate.set()
            assert f.join() == [0, 1, 2, 3]
            return records

        records = rt.run(main)
        assert len(records) == 4
        assert len({id(r._wake) for r in records}) == 1
        assert all(r.wakeups <= 2 for r in records)

