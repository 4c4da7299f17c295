"""A failure re-raised through many nested joins stays one small error.

Every join on a failed task wraps the failure in a
:class:`~repro.errors.TaskFailedError`, so a leaf that raises *n* joins
deep reaches the root as *n* wrappers chained by ``__cause__``.  The
message names the root cause once: embedding each level's ``repr``
doubled the escaping per level (a 16-deep chain used to build a 66 KB
message, a 20-deep one 1 MB).
"""

from __future__ import annotations

import pytest

from repro.errors import TaskFailedError
from repro.runtime import ProcessRuntime, TaskRuntime, WorkSharingRuntime

DEPTH = 64


class LeafError(Exception):
    pass


def fail_at_depth(rt, depth):
    """Join one child per level; the deepest task raises."""
    if depth == 0:
        raise LeafError("leaf")
    return rt.join(rt.fork(fail_at_depth, rt, depth - 1))


def _check(exc: TaskFailedError) -> None:
    assert len(str(exc)) < 1024
    assert exc.depth == DEPTH
    chain, cause = 0, exc
    while isinstance(cause, TaskFailedError):
        chain, cause = chain + 1, cause.__cause__
    assert chain == DEPTH
    assert type(cause) is LeafError and str(cause) == "leaf"
    assert exc.root_cause is cause
    assert "LeafError('leaf')" in str(exc)


@pytest.mark.parametrize(
    "make",
    [
        lambda: TaskRuntime("TJ-SP"),
        lambda: WorkSharingRuntime("TJ-SP", workers=2),
    ],
    ids=["threaded", "pool"],
)
def test_a_deep_failure_reaches_the_root_as_one_small_error(make):
    rt = make()

    def main():
        with pytest.raises(TaskFailedError) as info:
            rt.join(rt.fork(fail_at_depth, rt, DEPTH - 1))
        return info.value

    _check(rt.run(main))


def test_a_deep_failure_crosses_the_process_boundary_intact():
    """The dispatched body's engine nests DEPTH - 1 joins; the failure it
    raises is pickled to the parent with its whole chain."""
    rt = ProcessRuntime(workers=1, seg0=64, stripe=16)

    def main():
        with pytest.raises(TaskFailedError) as info:
            rt.join(rt.fork(fail_at_depth, DEPTH - 1))
        return info.value

    _check(rt.run(main))
