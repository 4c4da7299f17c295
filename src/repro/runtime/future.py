"""Futures — the joinable handles of the programming model (Section 2.2).

``async`` (here: :meth:`TaskRuntime.fork`) immediately returns a Future;
``Future.join()`` blocks until the associated task terminates and returns
its result, after the runtime's policy verifier has admitted the join.
Futures are freely copyable/shareable across tasks — that is precisely
what creates the arbitrary-join deadlock problem TJ solves.

Completion is **event-driven**: a future keeps a list of *wakers* (any
object with a ``set()`` method — a ``threading.Event``, a supervised
join record, a batch latch arm) and calls each exactly once when the
task terminates.  A blocked join therefore receives a targeted notify
the moment its joinee completes instead of discovering it on a poll
tick.  The waker list replaces the seed's per-future
``threading.Event`` (an Event allocates a Condition plus a Lock), which
also makes ``fork`` cheaper — the fast path of the paper's 1.06×
end-to-end overhead claim.

The waker protocol is lock-free under the GIL by ordering alone:
completion sets ``_done`` *before* snapshotting and waking the list,
and a registering waiter appends *before* re-checking ``done()`` — so
either the completer's snapshot contains the waiter, or the waiter's
re-check observes completion.  Either way no wakeup is lost.
"""

from __future__ import annotations

from typing import Any, Optional, TYPE_CHECKING

from ..errors import TaskCancelledError, TaskFailedError

if TYPE_CHECKING:  # pragma: no cover
    from .task import TaskHandle

__all__ = ["Future"]

_PENDING = object()


class Future:
    """The eventual result of an asynchronously executing task."""

    __slots__ = (
        "task",
        "_runtime",
        "_value",
        "_exc",
        "_done",
        "_waiters",
        "_joined",
        "_retry",
        "_retry_attempt",
        "_queued",
    )

    def __init__(self, runtime: object, task: "TaskHandle") -> None:
        self.task = task
        self._runtime = runtime
        self._value: Any = _PENDING
        self._exc: Optional[BaseException] = None
        self._done = False
        #: wakers to notify (once each) when the task terminates
        self._waiters: list = []
        #: set by the first completed join; read by the unjoined-failure
        #: reaper at runtime shutdown
        self._joined = False
        #: retry configuration: None, or (RetryPolicy, parent TaskHandle).
        #: While a retry is pending the future stays *undone* — joiners
        #: keep blocking across attempts — and ``task`` is re-pointed at
        #: each fresh attempt's handle.
        self._retry = None
        #: number of retries already consumed (0 = first attempt running)
        self._retry_attempt = 0
        #: a pool's queue cell while the task waits in its queue: one
        #: item, popped once, by a worker or by a work-first join
        self._queued: Optional[list] = None

    # ------------------------------------------------------------------
    # completion (called by the owning runtime)
    # ------------------------------------------------------------------
    def _set_result(self, value: Any) -> None:
        self._value = value
        self._finish()

    def _set_exception(self, exc: BaseException) -> None:
        self._exc = exc
        self._value = None
        self._finish()
        note = getattr(self._runtime, "_note_failure", None)
        if note is not None:
            note(self)

    def _finish(self) -> None:
        # Order matters: _done must be visible before any waker fires so
        # a woken waiter's done() check always succeeds.
        self._done = True
        for waker in list(self._waiters):
            waker.set()

    # ------------------------------------------------------------------
    # waker registration (the targeted-wakeup protocol)
    # ------------------------------------------------------------------
    def _add_waiter(self, waker) -> None:
        """Register *waker* to be ``set()`` on completion.

        Appends first, then re-checks completion: if the completer's
        snapshot raced past us, we fire the waker ourselves.  A waker
        must tolerate ``set()`` being called more than once (Events and
        the supervisor's records do).
        """
        self._waiters.append(waker)
        if self._done:
            waker.set()

    def _discard_waiter(self, waker) -> None:
        try:
            self._waiters.remove(waker)
        except ValueError:
            pass  # already drained by completion

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def done(self) -> bool:
        """Has the task terminated (successfully or not)?"""
        return self._done

    def cancelled(self) -> bool:
        """Did the task terminate by observing a cancellation request?"""
        return self._done and isinstance(self._exc, TaskCancelledError)

    def _wait(self, timeout: Optional[float] = None) -> bool:
        """Unverified completion wait (internal/tooling use only)."""
        if self._done:
            return True
        if timeout is not None and timeout <= 0:
            return False
        import threading

        waker = threading.Event()
        self._add_waiter(waker)
        try:
            waker.wait(timeout)
        finally:
            self._discard_waiter(waker)
        return self._done

    def _result_now(self) -> Any:
        """The result of a *terminated* task; wraps failures."""
        assert self._done
        if self._exc is not None:
            raise TaskFailedError(self.task, self._exc)
        return self._value

    # ------------------------------------------------------------------
    # the join operation
    # ------------------------------------------------------------------
    def join(self, timeout: Optional[float] = None) -> Any:
        """Block until the task terminates and return its result.

        The join is first checked by the runtime's verifier; a disallowed
        join faults with :class:`~repro.errors.PolicyViolationError` or —
        under the hybrid configuration — only a truly cyclic join faults,
        with :class:`~repro.errors.DeadlockAvoidedError`.

        ``timeout`` (seconds) bounds the blocked wait on the blocking
        runtimes: expiry raises :class:`~repro.errors.JoinTimeoutError`
        carrying the blocked edge, after the wait-for edge has been
        unregistered — the same future may be joined again later.  When
        None, the runtime's ``default_join_timeout`` (if any) applies.

        In the cooperative runtime this method only works from the
        scheduler thread's currently running task; generator tasks should
        prefer ``result = yield future``.
        """
        if timeout is None:
            return self._runtime.join(self)
        return self._runtime.join(self, timeout=timeout)

    # ``get`` is the Futures-literature name used by some of the paper's
    # sources; keep it as an alias.
    get = join

    def cancel(self) -> bool:
        """Request cooperative cancellation of the task.

        Returns False if the task has already terminated (nothing to
        cancel), True once the request is recorded.  Cancellation is
        *cooperative*: a not-yet-started pool task is dropped before its
        body runs; a running task observes the request at its next
        cancellation point (fork, join, blocked-wait wakeup, or an
        explicit ``current_task().cancel_token.raise_if_cancelled()``)
        and terminates with :class:`~repro.errors.TaskCancelledError`.
        A task that never reaches a cancellation point runs to
        completion regardless.
        """
        if self._done:
            return False
        self.task.cancel_token.cancel()
        return True

    def __repr__(self) -> str:
        state = "done" if self._done else "pending"
        return f"<Future of {self.task.name}: {state}>"
