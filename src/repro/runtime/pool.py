"""A blocking work-sharing pool runtime (Habanero Java's default model).

The evaluation ran five of six benchmarks on HJ's *blocking work-sharing
runtime*: a pool of worker threads executing tasks from a shared queue,
where a worker that blocks in a join is *compensated* by growing the
pool so queued tasks are never starved of a worker.  The thread-per-task
runtime (:class:`TaskRuntime`) over-approximates that model; this class
implements it properly:

* ``fork`` enqueues the task as a one-item cell; an idle worker pops it;
* a ``join`` whose joinee still waits in the queue pops the cell itself
  and runs the body on its own thread (a *work-first* join, as Java's
  ``ForkJoinTask.join`` does): the joiner waits for that body either
  way, so this adds no wait.  Exactly one of the joiner and a worker
  pops a cell; a worker skips an emptied one.  The join is verified and
  its ``BlockedJoin`` record sits in the waits-for graph while the body
  runs, so Armus, the watchdog and the journal see the blocked join it
  logically is.  Joins with a deadline, joins on retrying tasks, joins
  nested past ``_MAX_INLINE_DEPTH`` queued bodies on one thread and
  ``join_batch``'s pre-wait park instead;
* a worker about to park in ``join`` checks whether any idle worker
  remains — if not, it starts a compensation worker (bounded by
  ``max_workers``) before blocking, preserving progress;
* join verification is identical to the other runtimes (policy gate,
  Armus filter, KJ-learn).

Compensation removes *scheduler-induced* deadlocks (all workers blocked
while runnable tasks wait in the queue); *join-cycle* deadlocks remain
the policy's job — which is the paper's division of labour.  On top of
that sits the supervision layer (:mod:`repro.runtime.supervisor`): join
deadlines, cooperative cancellation, a stall watchdog that turns true
join cycles into :class:`~repro.errors.DeadlockDetectedError` even with
``policy=None``, and an unjoined-failure reaper at shutdown.  ``run``,
``fork``, the task body and the joins are
:class:`~repro.runtime.supervisor.SupervisedJoinMixin`'s; this class
adds the queue, the claim, compensation and helping.  It is also the
engine each :class:`~repro.runtime.procs.ProcessRuntime` worker runs
its dispatched bodies on.
"""

from __future__ import annotations

import threading
from queue import Empty, SimpleQueue
from typing import Optional, Union

from .supervisor import StallWatchdog, SupervisedJoinMixin
from .task import TaskState
from ..core.policy import JoinPolicy
from ..core.verifier import Verifier
from ..errors import RuntimeStateError, TaskCancelledError

__all__ = ["WorkSharingRuntime"]

_SHUTDOWN = object()

#: how many queued bodies one thread may run nested inside another task
#: (work-first joins, and a blocked worker's help) before its next join
#: parks instead; each level holds about ten interpreter frames
_MAX_INLINE_DEPTH = 16

#: per thread: queued bodies running nested on it right now.  Per thread
#: and not per runtime, because what the bound protects is the stack.
_nesting = threading.local()


class WorkSharingRuntime(SupervisedJoinMixin):
    """Task-parallel futures on a self-compensating worker pool.

    Supervision parameters (``default_join_timeout``, ``watchdog``,
    ``on_unjoined_failure``) match
    :class:`~repro.runtime.threaded.TaskRuntime`.
    """

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
        fail_mode: str = "raise",
        journal: Union[None, str, object] = None,
        verifier: Optional[Verifier] = None,
        workers: int = 4,
        max_workers: int = 256,
        default_join_timeout: Optional[float] = None,
        watchdog: Union[bool, float, StallWatchdog] = True,
        on_unjoined_failure: str = "warn",
        clock=None,
    ) -> None:
        if workers < 1 or max_workers < workers:
            raise ValueError("need 1 <= workers <= max_workers")
        self._queue: "SimpleQueue" = SimpleQueue()
        self._idle = 0  # workers currently parked on queue.get
        self._worker_count = 0
        self._peak_workers = 0
        self._compensations = 0
        self._inline_joins = 0
        self._base_workers = workers
        self._max_workers = max_workers
        self._worker_threads: set[int] = set()  # thread idents of pool workers
        self._shutdown = False
        self._init_runtime(
            policy,
            fallback=fallback,
            fail_mode=fail_mode,
            journal=journal,
            verifier=verifier,
            default_join_timeout=default_join_timeout,
            watchdog=watchdog,
            on_unjoined_failure=on_unjoined_failure,
            clock=clock,
        )

    # ------------------------------------------------------------------
    @property
    def peak_workers(self) -> int:
        """Largest pool size reached (base + compensation threads)."""
        with self._lock:
            return self._peak_workers

    @property
    def compensations(self) -> int:
        """How many compensation workers blocking joins forced us to add."""
        with self._lock:
            return self._compensations

    @property
    def inline_joins(self) -> int:
        """Joins that ran their still-queued joinee on their own thread."""
        with self._lock:
            return self._inline_joins

    def _metrics_snapshot(self) -> dict:
        out = super()._metrics_snapshot()
        with self._lock:
            out["tasks_started"] = self._tasks_started
            out["workers"] = self._worker_count
            out["peak_workers"] = self._peak_workers
            out["compensations"] = self._compensations
            out["inline_joins"] = self._inline_joins
            out["outstanding"] = self._outstanding
        return out

    # ------------------------------------------------------------------
    # pool machinery
    # ------------------------------------------------------------------
    def _open(self) -> None:
        with self._lock:
            for _ in range(self._base_workers):
                self._spawn_worker()

    def _close(self) -> None:
        """Top-level implicit finish: wait for every forked task to
        terminate, then stop the pool and retire the watchdog."""
        self._await_tasks()
        with self._lock:
            self._shutdown = True
            count = self._worker_count
        for _ in range(count):
            self._queue.put(_SHUTDOWN)
        if self._watchdog is not None:
            self._watchdog.stop()

    def _dispatch(self, item: tuple) -> None:
        if self._shutdown:
            raise RuntimeStateError("runtime already shut down")
        cell = [item]
        if item[1]._retry is None:
            item[1]._queued = cell  # claimable: a retrying task's joins park
        self._queue.put(cell)

    def _spawn_worker(self) -> None:
        """Start one worker; caller holds the lock."""
        self._worker_count += 1
        self._peak_workers = max(self._peak_workers, self._worker_count)
        thread = threading.Thread(target=self._worker_main, daemon=True)
        thread.start()

    def _worker_main(self) -> None:
        self._worker_threads.add(threading.get_ident())
        while True:
            with self._lock:
                self._idle += 1
            cell = self._queue.get()
            with self._lock:
                self._idle -= 1
            if cell is _SHUTDOWN:
                return
            try:
                item = cell.pop()
            except IndexError:
                continue  # a work-first join claimed it
            self._run_queued(item)

    def _run_queued(self, item: tuple, inline: bool = False) -> None:
        task, future = item[0], item[1]
        if task.cancel_token.cancelled():
            # Cancelled while still queued: never run the body.
            task.state = TaskState.FAILED
            future._set_exception(TaskCancelledError(task))
        else:
            retry_delay = self._execute(item)
            if retry_delay is not None:
                # Requeue the attempt instead of completing the future.
                # The task stays *outstanding* — run() must not shut the
                # pool down between attempts — and the cancel check above
                # drops retries cancelled during the backoff.
                if retry_delay > 0.0:
                    timer = threading.Timer(retry_delay, self._queue.put, args=([item],))
                    timer.daemon = True
                    timer.start()
                else:
                    self._queue.put([item])
                return
        with self._lock:
            self._inline_joins += inline
            self._task_ended_locked()

    # ------------------------------------------------------------------
    # work-first joins (see SupervisedJoinMixin._claim)
    # ------------------------------------------------------------------
    def _claim(self, future) -> Optional[tuple]:
        """Pop *future*'s queue cell, unless a worker (or another join)
        already did or this thread's nesting is at its bound."""
        cell = future._queued
        if cell is None or getattr(_nesting, "depth", 0) >= _MAX_INLINE_DEPTH:
            return None
        try:
            return cell.pop()
        except IndexError:
            return None

    def _run_nested(self, item: tuple, inline: bool) -> None:
        """Run a queued item on a thread that is inside another task: a
        work-first join (*inline*), or a blocked worker's help."""
        depth = getattr(_nesting, "depth", 0)
        _nesting.depth = depth + 1
        try:
            self._run_queued(item, inline)
        finally:
            _nesting.depth = depth

    # ------------------------------------------------------------------
    # the supervision hook (see SupervisedJoinMixin._wait)
    # ------------------------------------------------------------------
    def _before_block(self) -> tuple:
        """A pool worker is about to block: keep the pool progressing.

        Compensation starts a spare worker while the pool is below
        ``max_workers``.  Past the cap the blocked worker *helps*: it
        pulls runnable tasks off the queue and executes them inline
        between wakeups, and only a *saturated* pool (no idle worker, no
        headroom left to compensate) makes its wait poll for that work —
        every other state lets the event-driven wait sleep untimed.  The
        last worker to block at the cap always sees saturation and keeps
        ticking, which is what preserves progress: deep fork trees never
        starve (HJ's runtime solves the same problem with a similar mix
        of compensation and work assists).
        """
        if threading.get_ident() not in self._worker_threads:
            return None, None  # the root (or a foreign thread) costs no worker
        with self._lock:
            if self._idle == 0 and self._worker_count < self._max_workers:
                self._compensations += 1
                self._spawn_worker()
        return self._help, self._saturated

    def _saturated(self) -> bool:
        with self._lock:
            return self._idle == 0 and self._worker_count >= self._max_workers

    def _help(self) -> bool:
        """Run one queued task inline; True when there was one to run."""
        with self._lock:
            if self._idle > 0 or self._worker_count < self._max_workers:
                return False  # compensation (or an idle worker) has it
        while True:
            try:
                cell = self._queue.get_nowait()
            except Empty:
                return False
            if cell is _SHUTDOWN:
                # shutdown is only initiated once nothing is outstanding,
                # so this cannot happen while we are blocked; be safe.
                self._queue.put(cell)
                return False
            try:
                item = cell.pop()
            except IndexError:
                continue  # a work-first join claimed it
            self._run_nested(item, False)
            return True
