"""Errors that cross process boundaries must survive pickling intact.

The deadlock diagnoses carry live :class:`TaskHandle` objects in their
``cycle`` and the quarantine error carries a formatted traceback; both
classes define ``__reduce__`` so a pickle round trip (as used by
``multiprocessing`` result queues and the kill-9 journal harness)
neither fails nor scrambles the constructor arguments.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    InjectedFaultError,
    JoinTimeoutError,
    PolicyQuarantinedError,
    PolicyViolationError,
    ReproError,
    TaskCancelledError,
    TaskFailedError,
)


class _Handle:
    """Stand-in for a TaskHandle: unpicklable, but carries a name."""

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"<task {self.name}>"

    def __reduce__(self):
        raise TypeError("task handles are pinned to one process")


@pytest.mark.parametrize("cls", [DeadlockAvoidedError, DeadlockDetectedError])
def test_deadlock_errors_pickle_with_live_handles(cls):
    cycle = (_Handle("task-1"), _Handle("task-2"), _Handle("task-1"))
    err = cls(cycle=cycle)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    # handles crossed the boundary by name
    assert back.cycle == ("task-1", "task-2", "task-1")
    assert str(back) == str(err)


@pytest.mark.parametrize("cls", [DeadlockAvoidedError, DeadlockDetectedError])
def test_deadlock_errors_pickle_without_a_cycle(cls):
    back = pickle.loads(pickle.dumps(cls()))
    assert back.cycle is None
    assert type(back) is cls


def test_deadlock_cycle_of_plain_values_passes_through():
    err = DeadlockDetectedError(cycle=("a", "b", "a"))
    back = pickle.loads(pickle.dumps(err))
    assert back.cycle == ("a", "b", "a")


def test_quarantine_error_pickles_all_fields():
    err = PolicyQuarantinedError(
        "TJ-SP", "permits", original="Traceback (most recent call last): boom"
    )
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is PolicyQuarantinedError
    assert back.policy == "TJ-SP"
    assert back.site == "permits"
    assert back.original == err.original
    assert str(back) == str(err)


# ----------------------------------------------------------------------
# every public error, through a real multiprocessing result queue
# ----------------------------------------------------------------------
class _Unpicklable(Exception):
    """A user exception whose payload refuses to pickle."""

    def __init__(self):
        self.lock = object().__reduce__  # bound-method payload: unpicklable
        super().__init__("user code blew up")


def _failed_with_batch_index():
    err = TaskFailedError(_Handle("leaf-3"), ValueError("boom"))
    err.batch_index = 3
    return err


def _every_public_error():
    """One representative instance per error that can cross a boundary."""
    return [
        PolicyViolationError("TJ-SP", _Handle("a"), _Handle("b")),
        PolicyQuarantinedError("TJ-SP", "permits", original="tb"),
        DeadlockAvoidedError(cycle=(_Handle("a"), _Handle("b"), _Handle("a"))),
        DeadlockDetectedError(cycle=("a", "b", "a")),
        JoinTimeoutError(_Handle("joiner"), _Handle("joinee"), 1.5),
        TaskCancelledError(_Handle("victim")),
        _failed_with_batch_index(),
        InjectedFaultError(site="join:4"),
    ]


def _echo_errors(out_q):
    for err in _every_public_error():
        out_q.put(err)


def test_every_error_type_round_trips_a_result_queue():
    """The procs runtime ships failures through mp queues verbatim."""
    ctx = multiprocessing.get_context("spawn")
    out_q = ctx.Queue()
    proc = ctx.Process(target=_echo_errors, args=(out_q,))
    proc.start()
    received = [out_q.get(timeout=30) for _ in _every_public_error()]
    proc.join(timeout=30)
    assert proc.exitcode == 0
    for sent, back in zip(_every_public_error(), received):
        assert type(back) is type(sent)
        assert str(back) == str(sent)


def test_task_failed_error_preserves_batch_index_and_cause():
    err = _failed_with_batch_index()
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TaskFailedError
    assert back.batch_index == 3
    assert back.task == "leaf-3"
    assert isinstance(back.__cause__, ValueError)
    assert str(back.__cause__) == "boom"
    assert str(back) == str(err)


def test_task_failed_error_survives_an_unpicklable_cause():
    err = TaskFailedError(_Handle("leaf"), _Unpicklable())
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TaskFailedError
    assert isinstance(back.__cause__, ReproError)
    assert "unpicklable cause" in str(back.__cause__)
    assert str(back) == str(err)


def test_join_timeout_error_fields_cross_by_name():
    err = JoinTimeoutError(_Handle("joiner"), _Handle("joinee"), 2.5)
    back = pickle.loads(pickle.dumps(err))
    assert (back.joiner, back.joinee, back.timeout) == ("joiner", "joinee", 2.5)
    assert isinstance(back, TimeoutError)


def test_quarantine_error_chained_cause_survives():
    err = PolicyQuarantinedError("TJ-SP", "permits", original="tb")
    try:
        try:
            raise ZeroDivisionError("policy bug")
        except ZeroDivisionError as inner:
            raise err from inner
    except PolicyQuarantinedError as caught:
        back = pickle.loads(pickle.dumps(caught))
    assert back.policy == "TJ-SP"
    # __reduce__ rebuilds from constructor args; an explicitly chained
    # cause still crosses because pickle carries exception state too.
    assert str(back) == str(err)
