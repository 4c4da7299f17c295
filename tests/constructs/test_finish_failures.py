"""Failure propagation through finish scopes.

A crashing child must not leave residue behind: the finish scope still
drains every spawned task, so the Armus graph is empty and no forced
edge is live at exit.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.constructs import finish
from repro.errors import TaskFailedError
from repro.runtime import TaskRuntime, WorkSharingRuntime

RUNTIMES = [
    ("threaded", lambda **kw: TaskRuntime(**kw)),
    ("pool", lambda **kw: WorkSharingRuntime(workers=2, max_workers=64, **kw)),
]


def _boom():
    raise RuntimeError("child crashed")


@pytest.mark.parametrize("label,make_rt", RUNTIMES, ids=[r[0] for r in RUNTIMES])
class TestFinishFailurePropagation:
    def test_crash_leaves_no_armus_state(self, label, make_rt):
        rt = make_rt(policy="KJ-SS")  # KJ: joins actually consult Armus

        def program():
            with pytest.raises(TaskFailedError) as info:
                with finish(rt) as scope:
                    scope.async_(lambda: 1)
                    scope.async_(_boom)
                    scope.async_(lambda: 2)
            assert isinstance(info.value.__cause__, RuntimeError)
            return True

        assert rt.run(program)
        assert len(rt.detector.graph) == 0
        assert rt.detector.live_forced_edges == 0
        assert rt.blocked_joins() == []

    def test_all_failures_are_collected(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")

        def program():
            with pytest.raises(TaskFailedError):
                with finish(rt) as scope:
                    for _ in range(3):
                        scope.async_(_boom)
                    scope.async_(lambda: "ok")
            assert len(scope.failures) == 3
            assert scope.results == ["ok"]
            return True

        assert rt.run(program)

    def test_body_exception_still_drains_children(self, label, make_rt):
        rt = make_rt(policy="TJ-SP")
        finished = []

        def slow_child():
            time.sleep(0.05)
            finished.append(True)

        def program():
            with pytest.raises(ValueError, match="body"):
                with finish(rt) as scope:
                    scope.async_(slow_child)
                    raise ValueError("body")
            # the body's exception wins, but the child was still awaited
            assert finished == [True]
            return True

        assert rt.run(program)
        assert len(rt.detector.graph) == 0

    def test_nested_spawner_crashes_after_spawning(self, label, make_rt):
        """A child that registers a grandchild into the scope and then
        crashes: the grandchild must still be joined before exit."""
        rt = make_rt(policy="TJ-SP")
        grandchild_ran = threading.Event()

        def grandchild():
            time.sleep(0.02)
            grandchild_ran.set()
            return "deep"

        def child(scope):
            scope.async_(grandchild)
            raise RuntimeError("spawner down")

        def program():
            with pytest.raises(TaskFailedError):
                with finish(rt) as scope:
                    scope.async_(child, scope)
            assert grandchild_ran.is_set()
            assert "deep" in scope.results
            return True

        assert rt.run(program)
        assert len(rt.detector.graph) == 0
        assert rt.detector.live_forced_edges == 0

