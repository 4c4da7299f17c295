"""Tests for the finish construct."""

import pytest

from repro import TaskRuntime, TaskFailedError
from repro.constructs import FinishScope, finish
from repro.errors import RuntimeStateError


class TestFinish:
    def test_awaits_direct_children(self):
        rt = TaskRuntime()

        def main():
            with finish(rt) as scope:
                for i in range(8):
                    scope.async_(lambda i=i: i)
            return sum(scope.results)

        assert rt.run(main) == 28

    def test_awaits_transitively_spawned_tasks(self):
        """The defining property of finish: nested spawns are awaited."""
        rt = TaskRuntime()
        seen = []

        def walker(depth, scope):
            if depth > 0:
                scope.async_(walker, depth - 1, scope)
                scope.async_(walker, depth - 1, scope)
            seen.append(depth)
            return 1

        def main():
            with finish(rt) as scope:
                scope.async_(walker, 4, scope)
            return len(scope.results)

        assert rt.run(main) == 2**5 - 1
        assert len(seen) == 31  # every task really ran before exit

    def test_finish_is_tj_valid_but_not_always_kj_valid(self):
        """The arbitrary-descendant drain never trips TJ."""

        def program(policy):
            rt = TaskRuntime(policy=policy)

            def walker(depth, scope):
                if depth > 0:
                    scope.async_(walker, depth - 1, scope)
                return 1

            def main():
                with finish(rt) as scope:
                    scope.async_(walker, 6, scope)
                return len(scope.results)

            assert rt.run(main) == 7
            return rt.detector.stats.false_positives

        assert program("TJ-SP") == 0
        # KJ may or may not trip depending on scheduling; both fine — the
        # assertion is that TJ never does.

    def test_results_before_close_rejected(self):
        rt = TaskRuntime()

        def main():
            with finish(rt) as scope:
                scope.async_(lambda: 1)
                with pytest.raises(RuntimeStateError):
                    scope.results
            return scope.results

        assert rt.run(main) == [1]

    def test_spawn_after_close_rejected(self):
        rt = TaskRuntime()

        def main():
            with finish(rt) as scope:
                pass
            with pytest.raises(RuntimeStateError):
                scope.async_(lambda: 1)

        rt.run(main)

    def test_task_failure_propagates(self):
        rt = TaskRuntime()

        def main():
            with finish(rt) as scope:
                scope.async_(lambda: 1 / 0)

        with pytest.raises(TaskFailedError) as exc_info:
            rt.run(main)
        assert isinstance(exc_info.value.__cause__, ZeroDivisionError)

    def test_body_exception_wins_but_tasks_still_awaited(self):
        rt = TaskRuntime()
        ran = []

        def main():
            with finish(rt) as scope:
                scope.async_(lambda: ran.append(1))
                raise ValueError("body")

        with pytest.raises(ValueError, match="body"):
            rt.run(main)
        assert ran == [1]

