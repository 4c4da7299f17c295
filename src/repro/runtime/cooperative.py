"""The cooperative (single-threaded, deterministic) runtime.

The paper's footnote 4 mentions an alternative *cooperative work-sharing*
runtime used for NQueens; this module provides the Python analogue.
Tasks are generator functions; a task joins by yielding the future::

    def reducer(futs):
        total = 0
        for f in futs:
            total += (yield f)      # join
        return total

``yield None`` is a pure scheduling yield (the analogue of
``Thread.yield()`` in Listing 2's spin loop).  Plain (non-generator)
functions are also accepted and simply run to completion when scheduled.

Because scheduling is deterministic (FIFO), this runtime doubles as the
repository's deadlock sandbox: with verification disabled a cyclic join
pattern is *detected* (the scheduler observes that no task can make
progress and raises :class:`DeadlockDetectedError` instead of hanging),
and with verification enabled the same program receives a recoverable
:class:`DeadlockAvoidedError`/:class:`PolicyViolationError` at the
offending ``yield`` — tasks can catch it, exactly the recovery story of
Section 1.

Being single-threaded, this runtime never sleeps on a future: the
scheduler observes completion synchronously at each scheduling step, so
the event-driven waker protocol on :class:`~repro.runtime.future.Future`
(targeted wakes for the blocking runtimes' supervised waits) is simply
unused here — blocked generators are parked in data structures and
resumed when their future's task terminates.  Their blocked edges live
in the runtime's one waits-for graph (the Armus detector's with the
fallback on, a bare one otherwise), which the stuck report searches.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Callable, Generator, Optional, Union

from .context import current_task, require_current_task, task_scope
from .future import Future
from .task import TaskHandle, TaskState
from ..armus.graph import Entry, WaitsForGraph
from ..armus.hybrid import HybridVerifier
from ..core.policy import JoinPolicy
from ..core.verifier import Verifier
from ..errors import (
    DeadlockDetectedError,
    RuntimeStateError,
    TaskCancelledError,
    TaskFailedError,
)
from .supervisor import resolve_policy
from ..formal.deadlock import find_cycle

__all__ = ["CooperativeRuntime"]


class _Resume:
    """What to deliver to a task at its next step."""

    __slots__ = ("value", "exc")

    def __init__(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        self.value = value
        self.exc = exc


class CooperativeRuntime:
    """Deterministic single-threaded futures runtime with generator tasks."""

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
    ) -> None:
        policy_obj = resolve_policy(policy)
        self._hybrid: Optional[HybridVerifier] = HybridVerifier(policy_obj) if fallback else None
        self._verifier: Verifier = self._hybrid.verifier if self._hybrid else Verifier(policy_obj)
        self._ready: deque[TaskHandle] = deque()
        self._resume: dict[TaskHandle, _Resume] = {}
        self._gen: dict[TaskHandle, Generator] = {}
        self._future: dict[TaskHandle, Future] = {}
        #: the one store of blocked joins (a parked task's edge to its joinee)
        self._store = self._hybrid.detector.graph if self._hybrid else WaitsForGraph()
        #: future -> tasks parked on it (scheduling state: whom to resume)
        self._waiters: dict[Future, list[TaskHandle]] = {}
        self._running = False
        self._root_started = False
        self._steps = 0

    # ------------------------------------------------------------------
    @property
    def policy(self) -> JoinPolicy:
        return self._verifier.policy

    @property
    def verifier(self) -> Verifier:
        return self._verifier

    @property
    def detector(self):
        return self._hybrid.detector if self._hybrid else None

    @property
    def steps(self) -> int:
        """Scheduler steps executed so far (determinism aid for tests)."""
        return self._steps

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute *fn* as the root task; drive the scheduler to completion."""
        if self._root_started:
            raise RuntimeStateError(
                "this runtime already hosted a root task; create a fresh "
                "CooperativeRuntime per program run"
            )
        self._root_started = True
        vertex = self._verifier.on_init()
        root = self._make_task(vertex, fn, args, kwargs, name="root")
        root_future = self._future[root]
        self._running = True
        try:
            self._loop()
        finally:
            self._running = False
        assert root_future.done()
        root_future._joined = True
        return root_future._result_now()

    def fork(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """``async fn(*args)`` from within a running task.

        Forking is a cancellation point: a cancelled task faults here
        with :class:`~repro.errors.TaskCancelledError`.
        """
        parent = require_current_task()
        parent.cancel_token.raise_if_cancelled(parent)
        vertex = self._verifier.on_fork(parent.vertex)
        task = self._make_task(vertex, fn, args, kwargs)
        return self._future[task]

    def join(self, future: Future, *, timeout: Optional[float] = None) -> Any:
        """Synchronous join — only legal on an already-terminated future.

        A cooperative task that needs to *wait* must use ``yield future``;
        blocking here would freeze the whole scheduler, so it is refused.
        ``timeout`` is accepted for interface parity with the blocking
        runtimes and ignored: a join that is legal here never waits.
        """
        if future._runtime is not self:
            raise RuntimeStateError("future belongs to a different runtime")
        joiner = require_current_task()
        if not future.done():
            raise RuntimeStateError(
                "cooperative tasks must join with `result = yield future`; "
                "Future.join() can only collect already-terminated tasks"
            )
        joinee = future.task
        if self._hybrid is not None:
            self._hybrid.begin_join(
                joiner, joinee, joiner.vertex, joinee.vertex, joinee_done=True
            )
        else:
            self._verifier.require_join(joiner.vertex, joinee.vertex)
        self._verifier.on_join_completed(joiner.vertex, joinee.vertex)
        future._joined = True
        return future._result_now()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _make_task(
        self,
        vertex: object,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        name: Optional[str] = None,
    ) -> TaskHandle:
        parent = current_task()
        task = TaskHandle(
            vertex, code=fn, name=name, parent_uid=parent.uid if parent else None
        )
        future = Future(self, task)
        self._future[task] = future
        # Instantiate the body immediately so generator-function detection
        # happens at fork time; execution starts at the first scheduler step.
        if inspect.isgeneratorfunction(fn):
            self._gen[task] = fn(*args, **kwargs)
        else:
            # Plain callables run atomically when first scheduled.
            self._gen[task] = _as_generator(fn, args, kwargs)
        task.state = TaskState.RUNNING
        self._ready.append(task)
        return task

    def _loop(self) -> None:
        while True:
            if not self._ready:
                # The idle hook may wake parked tasks (the simulator's
                # virtual clock fires timers here); when it reports no
                # progress the run is over — or stuck.
                if self._on_idle():
                    continue
                break
            self._step(self._select_task())

    def _select_task(self) -> TaskHandle:
        """Pick the next ready task to step: FIFO.  The scheduling
        decision :class:`~repro.runtime.sim.SimRuntime` seeds, replays
        and records."""
        return self._ready.popleft()

    def _on_idle(self) -> bool:
        """No task is ready.  Returns True when progress was made.

        The base runtime can make none: blocked tasks with an empty
        ready queue are a deadlock (reported), and no blocked tasks
        means the program is done.  :class:`~repro.runtime.sim.SimRuntime`
        overrides this to advance its virtual clock and fire timers.
        """
        if len(self._store):
            self._report_stuck()
        return False

    def _report_stuck(self) -> None:
        """No runnable task but blocked tasks remain: a real deadlock.

        Unreachable while avoidance is active (that is Theorem 3.11 at
        work); with verification disabled this converts a hang into a
        diagnosable error carrying the cycle.
        """
        graph = self._store.adjacency()
        cycle = find_cycle(graph)
        raise DeadlockDetectedError(
            cycle=tuple(cycle) if cycle else tuple(t for t, succs in graph.items() if succs),
            message=None
            if cycle
            else "all tasks blocked but no cycle found (external future?)",
        )

    def _step(self, task: TaskHandle) -> None:
        gen = self._gen[task]
        resume = self._resume.pop(task, _Resume())
        if task.cancel_token.cancelled() and resume.exc is None:
            # Scheduling is a cancellation point: deliver the request as
            # an exception thrown into the generator, so the task can
            # run its cleanup (or catch and finish gracefully).
            resume = _Resume(exc=TaskCancelledError(task))
        self._steps += 1
        with task_scope(task):
            try:
                if resume.exc is not None:
                    yielded = gen.throw(resume.exc)
                else:
                    yielded = gen.send(resume.value)
            except StopIteration as stop:
                self._complete(task, value=stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - delivered at joins
                self._complete(task, exc=exc)
                return
        self._handle_yield(task, yielded)

    def _handle_yield(self, task: TaskHandle, yielded: Any) -> None:
        if yielded is None:
            # Pure scheduling yield: go to the back of the ready queue.
            self._ready.append(task)
            return
        if not isinstance(yielded, Future):
            if self._handle_other_yield(task, yielded):
                return
            self._resume[task] = _Resume(
                exc=RuntimeStateError(f"task yielded {yielded!r}; yield a Future or None")
            )
            self._ready.append(task)
            return
        future = yielded
        if future._runtime is not self:
            self._resume[task] = _Resume(
                exc=RuntimeStateError("future belongs to a different runtime")
            )
            self._ready.append(task)
            return
        joinee = future.task
        try:
            if self._hybrid is not None:
                self._hybrid.begin_join(
                    task, joinee, task.vertex, joinee.vertex, joinee_done=future.done()
                )
            else:
                self._verifier.require_join(task.vertex, joinee.vertex)
        except BaseException as exc:  # policy fault or avoided deadlock
            self._resume[task] = _Resume(exc=exc)
            self._ready.append(task)
            return
        if future.done():
            self._finish_join(task, future)
            self._ready.append(task)
            return
        # Genuinely blocked: park until the joinee completes.
        if self._hybrid is None:
            self._store.add(Entry(task, joinee))
        task.state = TaskState.BLOCKED
        self._waiters.setdefault(future, []).append(task)
        self._parked(task, future)

    def _handle_other_yield(self, task: TaskHandle, yielded: Any) -> bool:
        """Hook for subclass yield vocabulary (e.g. the simulator's
        sleep markers).  Return True when *yielded* was consumed."""
        return False

    def _parked(self, task: TaskHandle, future: Future) -> None:
        """Hook: *task* just blocked on *future* (simulator deadlines)."""

    def _finish_join(self, task: TaskHandle, future: Future) -> None:
        """Deliver a completed join's result (or failure) at next resume."""
        self._verifier.on_join_completed(task.vertex, future.task.vertex)
        future._joined = True
        try:
            value = future._result_now()
        except TaskFailedError as exc:
            self._resume[task] = _Resume(exc=exc)
        else:
            self._resume[task] = _Resume(value=value)

    def _complete(self, task: TaskHandle, value: Any = None, exc: Optional[BaseException] = None) -> None:
        future = self._future[task]
        if exc is not None:
            task.state = TaskState.FAILED
            future._set_exception(exc)
        else:
            task.state = TaskState.DONE
            future._set_result(value)
        del self._gen[task]
        for waiter in self._waiters.pop(future, ()):
            self._store.remove(waiter, task)
            waiter.state = TaskState.RUNNING
            self._finish_join(waiter, future)
            self._ready.append(waiter)


def _as_generator(fn: Callable[..., Any], args: tuple, kwargs: dict) -> Generator:
    """Wrap a plain callable as a single-step generator task body."""
    if False:  # pragma: no cover - makes this function a generator
        yield None
    return fn(*args, **kwargs)
