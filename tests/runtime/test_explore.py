"""Tests for schedule exploration — turning the paper's 'may violate KJ'
claims into checked EXISTS/FORALL statements over every interleaving
:class:`SimRuntime` can take."""

from dataclasses import dataclass
from itertools import islice
from typing import Any

import pytest

from repro.errors import RuntimeStateError
from repro.runtime.explore import Schedule, explore
from repro.runtime.sim import SimRuntime


def racy_queue_join_program(rt):
    """A miniature Listing 1: the root drains a queue of futures that
    tasks append to while running.  Depending on interleaving, the root
    may pop a grandchild before its parent."""
    tasks = []

    def f(depth):
        if depth > 0:
            tasks.append(rt.fork(f, depth - 1))
        yield None  # a preemption point between fork and return
        return 1

    def main():
        tasks.append(rt.fork(f, 2))
        total = 0
        while tasks:
            total += yield tasks.pop()  # LIFO pop: deepest-first when racy
        return total

    return main


def straight_line_program(rt):
    def main():
        a = rt.fork(lambda: 1)
        b = rt.fork(lambda: 2)
        va = yield a
        vb = yield b
        return va + vb

    return main


def two_racers_program(rt):
    """Two workers race to append; the result names the finishing order."""
    out = []

    def worker(name):
        yield None
        out.append(name)
        return name

    def main():
        futures = [rt.fork(worker, n) for n in ("a", "b")]
        for future in futures:
            yield future
        return "".join(out)

    return main


@dataclass
class Run:
    """What one schedule did."""

    schedule: Schedule
    result: Any
    false_positives: int
    deadlocks_avoided: int


def run_once(program, policy, *, schedule=None, seed=None):
    """One run of *program* on a fresh SimRuntime; whatever ``run``
    raises (a detected deadlock, a failed root) fails the calling test."""
    rt = SimRuntime(policy, seed=seed, schedule=schedule)
    result = rt.run(program(rt))
    stats = rt.detector.stats
    return Run(rt.recorded_schedule, result, stats.false_positives, stats.deadlocks_avoided)


def every_schedule(program, policy):
    return list(explore(lambda prefix: run_once(program, policy, schedule=prefix)))


class TestExploreSchedules:
    def test_all_schedules_compute_the_same_result(self):
        runs = every_schedule(racy_queue_join_program, "TJ-SP")
        assert len(runs) == 57  # genuinely multiple interleavings
        assert {r.result for r in runs} == {3}

    def test_tj_is_clean_on_every_schedule(self):
        """FORALL schedules: no TJ false positives (Listing 1's claim)."""
        runs = every_schedule(racy_queue_join_program, "TJ-SP")
        assert all(r.false_positives == 0 for r in runs)
        assert all(r.deadlocks_avoided == 0 for r in runs)

    def test_kj_violated_on_some_but_not_all_schedules(self):
        """EXISTS a schedule violating KJ, and EXISTS one that does not —
        the literal meaning of 'nondeterministically violates KJ'."""
        runs = every_schedule(racy_queue_join_program, "KJ-SS")
        assert sum(r.false_positives > 0 for r in runs) == 51
        assert any(r.false_positives == 0 for r in runs)
        assert all(r.deadlocks_avoided == 0 for r in runs)  # deadlock-free either way

    def test_deterministic_program_has_one_effective_schedule_class(self):
        runs = every_schedule(straight_line_program, "TJ-SP")
        assert len(runs) == 3
        assert {r.result for r in runs} == {3}

    def test_a_bounded_walk_runs_only_what_it_takes(self):
        calls = []

        def run(prefix):
            calls.append(prefix)
            return run_once(racy_queue_join_program, "TJ-SP", schedule=prefix)

        walk = explore(run)
        assert len(list(islice(walk, 2))) == 2
        assert len(calls) == 2  # nothing ran ahead of the caller
        assert next(walk, None) is not None  # the bound cut the walk short

    def test_schedules_are_distinct(self):
        runs = every_schedule(racy_queue_join_program, "KJ-VC")
        schedules = [r.schedule.choices for r in runs]
        assert len(schedules) == len(set(schedules))

    def test_visit_order_is_pinned(self):
        """Depth-first, the last decision flipped first: the predictor
        reports the first schedule that realizes a cycle, so this order
        decides which witness it writes."""
        runs = every_schedule(two_racers_program, None)
        assert [(r.schedule.choices, r.result) for r in runs] == [
            ((0, 0, 0, 0), "ab"),
            ((0, 0, 0, 1), "ab"),
            ((0, 0, 1), "ba"),
            ((0, 1, 0, 0), "ab"),
            ((0, 1, 0, 1), "ab"),
            ((0, 1, 1), "ab"),
            ((1, 0, 0), "ba"),
            ((1, 0, 1, 0), "ab"),
            ((1, 0, 1, 1), "ab"),
            ((1, 1), "ba"),
        ]


class TestFuzzSchedules:
    """Seeded random interleavings: ``SimRuntime(seed=k)``."""

    def test_fuzzing_is_reproducible(self):
        first = [run_once(racy_queue_join_program, "KJ-SS", seed=k) for k in range(10)]
        again = [run_once(racy_queue_join_program, "KJ-SS", seed=k) for k in range(10)]
        assert first == again

    def test_fuzzing_finds_the_kj_violation(self):
        runs = [run_once(racy_queue_join_program, "KJ-SS", seed=k) for k in range(30)]
        assert any(r.false_positives > 0 for r in runs)

    def test_results_agree_across_fuzzing(self):
        runs = [run_once(racy_queue_join_program, "TJ-SP", seed=k) for k in range(20)]
        assert {r.result for r in runs} == {3}


class TestSchedulerHook:
    """A replayed :class:`Schedule` steers ``SimRuntime``'s decisions."""

    def test_custom_scheduler_controls_order(self):
        log = []
        rt = SimRuntime(schedule=Schedule(choices=(2, 1)))

        def worker(i):
            log.append(i)
            return i

        def main():
            futs = [rt.fork(worker, i) for i in range(3)]
            for f in futs:
                yield f

        rt.run(main)
        assert log == [2, 1, 0]  # the schedule ran the youngest first

    def test_bad_scheduler_index_rejected(self):
        rt = SimRuntime(schedule=Schedule(choices=(5,)))

        def main():
            a = rt.fork(lambda: 1)
            b = rt.fork(lambda: 2)
            yield a
            yield b

        with pytest.raises(RuntimeStateError, match="out of range"):
            rt.run(main)
