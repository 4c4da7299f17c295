"""Round-trip integration: live run -> recorded trace -> offline checks
-> replayed run.  Every stage must agree about what the program did."""

import queue

from repro import TaskRuntime
from repro.core import TJSpawnPathsLegacy
from repro.formal.actions import Fork, Join
from repro.formal.deadlock import contains_deadlock
from repro.formal.trace import is_structurally_valid, is_tj_valid
from repro.predict import TraceProgram
from repro.tools import TraceRecordingPolicy


def replay(trace, policy):
    """*trace* run once on the deterministic simulator; an error it ends
    in is raised, so it fails the calling test."""
    outcome = TraceProgram.from_trace(trace).run_sim(policy)
    if outcome.error is not None:
        raise outcome.error
    return outcome


def record(program_builder):
    recorder = TraceRecordingPolicy(TJSpawnPathsLegacy())
    rt = TaskRuntime(policy=recorder)
    result = rt.run(program_builder(rt))
    return result, recorder.snapshot(), rt


def fib_program(rt):
    def fib(n=9):
        if n < 2:
            return n
        a, b = rt.fork(fib, n - 1), rt.fork(fib, n - 2)
        return a.join() + b.join()

    return fib


def queue_program(rt):
    tasks: "queue.SimpleQueue" = queue.SimpleQueue()

    def f(depth):
        if depth > 0:
            tasks.put(rt.fork(f, depth - 1))
            tasks.put(rt.fork(f, depth - 1))
        return 1

    def main():
        tasks.put(rt.fork(f, 3))
        total = 0
        while True:
            try:
                total += tasks.get_nowait().join()
            except queue.Empty:
                return total

    return main


class TestRoundTrip:
    def test_fib_roundtrip(self):
        result, trace, rt = record(fib_program)
        assert result == 34
        assert is_structurally_valid(trace)
        assert is_tj_valid(trace)
        assert not contains_deadlock(trace)
        # replay sees the same number of verification events
        outcome = replay(trace, "TJ-SP")
        assert outcome.clean
        assert len(outcome.completed_joins) == sum(
            isinstance(a, Join) for a in trace
        )
        assert (
            outcome.runtime.verifier.stats.forks == rt.verifier.stats.forks
        )

    def test_queue_program_roundtrip(self):
        result, trace, _ = record(queue_program)
        assert result == 15
        assert is_tj_valid(trace)
        outcome = replay(trace, "TJ-SP")
        assert outcome.clean

    def test_recorded_joins_match_live_joins(self):
        _, trace, rt = record(fib_program)
        recorded_joins = sum(isinstance(a, Join) for a in trace)
        assert recorded_joins == rt.verifier.stats.joins_checked
        recorded_forks = sum(isinstance(a, Fork) for a in trace)
        assert recorded_forks == rt.tasks_started

    def test_double_roundtrip_is_stable(self):
        """Recording the replay of a recording yields an isomorphic fork
        tree (task *names* reflect global fork order, which is schedule
        dependent; the per-parent child order is what TJ depends on and
        must be preserved exactly)."""
        from repro.formal.fork_tree import ForkTree

        def canonical(trace):
            tree = ForkTree.from_trace(
                [a for a in trace if not isinstance(a, Join)]
            )

            def shape(task):
                return tuple(shape(c) for c in tree.children(task))

            return shape(tree.root)

        _, trace1, _ = record(fib_program)
        recorder = TraceRecordingPolicy(TJSpawnPathsLegacy())
        replay(trace1, recorder)
        trace2 = recorder.snapshot()
        assert canonical(trace1) == canonical(trace2)
