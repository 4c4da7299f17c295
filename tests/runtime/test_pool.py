"""Tests for the blocking work-sharing pool runtime."""

import threading

import pytest

from repro import DeadlockAvoidedError, TaskFailedError
from repro.errors import RuntimeStateError
from repro.runtime import WorkSharingRuntime


class TestBasics:
    def test_fork_join(self):
        rt = WorkSharingRuntime(workers=2)

        def main():
            return rt.fork(lambda: 21).join() * 2

        assert rt.run(main) == 42

    def test_many_independent_tasks(self):
        rt = WorkSharingRuntime(workers=4)
        n = 100

        def main():
            futs = [rt.fork(lambda i=i: i * i) for i in range(n)]
            return sum(f.join() for f in futs)

        assert rt.run(main) == sum(i * i for i in range(n))
        # independent tasks never block workers: the pool stays small
        assert rt.peak_workers == 4
        assert rt.compensations == 0

    def test_unjoined_tasks_complete_before_run_returns(self):
        rt = WorkSharingRuntime(workers=2)
        done = []

        def main():
            for i in range(10):
                rt.fork(lambda i=i: done.append(i))
            return "root-done"

        assert rt.run(main) == "root-done"
        assert sorted(done) == list(range(10))  # implicit top-level finish

    def test_failure_wrapped(self):
        rt = WorkSharingRuntime()

        def main():
            with pytest.raises(TaskFailedError):
                rt.fork(lambda: 1 / 0).join()
            return "ok"

        assert rt.run(main) == "ok"

    def test_run_twice_refused(self):
        rt = WorkSharingRuntime()
        rt.run(lambda: None)
        with pytest.raises(RuntimeStateError):
            rt.run(lambda: None)

    def test_bad_configuration(self):
        with pytest.raises(ValueError):
            WorkSharingRuntime(workers=0)
        with pytest.raises(ValueError):
            WorkSharingRuntime(workers=8, max_workers=4)


#: a join with a deadline always parks, even on a joinee still in the
#: queue (an inline body could not honour the deadline), so these joins
#: block their worker the way every join did before work-first joins
_PARK = 60.0


def _fib(rt, n, **join):
    if n < 2:
        return n
    a = rt.fork(_fib, rt, n - 1, **join)
    b = rt.fork(_fib, rt, n - 2, **join)
    return a.join(**join) + b.join(**join)


def _chain(rt, depth, **join):
    if depth == 0:
        return 0
    return rt.fork(_chain, rt, depth - 1, **join).join(**join) + 1


class TestCompensation:
    def test_nested_blocking_grows_the_pool(self):
        """Recursive fork+join with a 2-worker pool whose joins park:
        without compensation this would starve (all workers blocked on
        children); with it the pool grows just enough to keep making
        progress."""
        rt = WorkSharingRuntime(workers=2, max_workers=64)
        assert rt.run(_fib, rt, 10, timeout=_PARK) == 55
        assert rt.compensations > 0
        assert rt.peak_workers > 2

    def test_single_worker_chain(self):
        """Depth-k chain of parking joins on a 1-worker pool — the
        pathological case for work sharing; compensation must add ~k
        workers."""
        rt = WorkSharingRuntime(workers=1, max_workers=64)
        assert rt.run(_chain, rt, 10, timeout=_PARK) == 10
        assert rt.peak_workers >= 10

    @pytest.mark.parametrize(
        "program, value", [(_fib, 55), (_chain, 10)], ids=["fib", "chain"]
    )
    def test_work_first_joins_need_no_compensation(self, program, value):
        """The same programs with plain joins: a worker's join on the
        child it just queued runs that child itself, so one worker
        finishes the whole tree and nothing is compensated."""
        rt = WorkSharingRuntime(workers=1, max_workers=64)
        assert rt.run(program, rt, 10) == value
        assert rt.compensations == 0
        assert rt.peak_workers == 1
        assert rt.inline_joins > 0

    def test_root_blocking_needs_no_compensation(self):
        rt = WorkSharingRuntime(workers=1)
        gate = threading.Event()

        def main():
            fut = rt.fork(lambda: (gate.wait(), 5)[1])
            gate.set()
            return fut.join()  # root thread is not a pool worker

        assert rt.run(main) == 5
        assert rt.compensations == 0


class TestVerification:
    def test_deadlock_avoided_in_pool(self):
        rt = WorkSharingRuntime(policy="TJ-SP", workers=4)

        def main():
            box = {}
            ready = threading.Event()
            recovered = []

            def t1():
                ready.wait()
                try:
                    return box["f2"].join()
                except DeadlockAvoidedError:
                    recovered.append("t1")
                    return 1

            def t2():
                try:
                    return box["f1"].join()
                except DeadlockAvoidedError:
                    recovered.append("t2")
                    return 2

            box["f1"] = rt.fork(t1)
            box["f2"] = rt.fork(t2)
            ready.set()
            box["f1"].join()
            box["f2"].join()
            return recovered

        recovered = rt.run(main)
        assert len(recovered) == 1
        assert rt.detector.stats.deadlocks_avoided == 1

    def test_policy_stats_flow_through(self):
        rt = WorkSharingRuntime(policy="TJ-SP", workers=2)

        def main():
            futs = [rt.fork(lambda: 1) for _ in range(5)]
            return sum(f.join() for f in futs)

        assert rt.run(main) == 5
        assert rt.verifier.stats.forks == 6
        assert rt.verifier.stats.joins_checked == 5
        assert rt.detector.stats.false_positives == 0

    def test_benchmarks_run_on_the_pool(self):
        """The Section 6 benchmarks are runtime-agnostic: spot-check two
        on the work-sharing pool."""
        from repro.benchsuite import make_benchmark

        for name, params in (
            ("Strassen", {"n": 128, "cutoff": 64}),
            ("Series", {"coefficients": 40, "samples": 50}),
        ):
            bench = make_benchmark(name, **params)
            bench.build()
            rt = WorkSharingRuntime(policy="TJ-SP", workers=4)
            result = rt.run(bench.run, rt)
            assert bench.verify(result)
            assert rt.detector.stats.false_positives == 0
