"""The blocking (thread-per-task) runtime.

This is the Python analogue of Habanero-Java's blocking work-sharing
runtime used for five of the six evaluation benchmarks: every ``fork``
gives the task a dedicated OS thread for its whole lifetime, and a join
blocks the calling thread until the joinee terminates.

``fork`` itself runs on a **pooled fast path**: a terminated task's
thread parks on a private handoff channel for ``_IDLE_TIMEOUT`` seconds
(bounded to ``_MAX_IDLE`` parked threads) and the next fork hands its
task straight to a parked thread instead of paying OS thread start-up
cost.  The model is unchanged — a running task still owns one thread
exclusively — only thread *creation* is amortised, which is where most
of the baseline fork cost went.  ``tasks_started`` counts forks;
``threads_started`` counts real OS threads (``<=`` forks).

Instrumentation: every fork funnels through ``AddChild`` and every join
through the policy gate (Algorithm 1), optionally composed with the Armus
fallback (the Section 6 configuration).  With ``policy=None`` joins are
unchecked — the overhead baseline.

Joins are *supervised* (see :mod:`repro.runtime.supervisor`): they
accept deadlines, observe cooperative cancellation, and — with the
watchdog enabled (the default) — a true join cycle terminates every
blocked task with :class:`~repro.errors.DeadlockDetectedError` instead
of hanging, even in configurations the avoidance machinery does not
cover.  Blocked waits are event-driven (a targeted notify per state
change); the main thread additionally re-checks on a coarse tick so
Ctrl-C works while it is blocked in a join.  ``run``, ``fork``, the task
body and the joins live in
:class:`~repro.runtime.supervisor.SupervisedJoinMixin`; this class adds
only the thread hand-off.
"""

from __future__ import annotations

import threading
from queue import Empty, SimpleQueue
from typing import Optional, Union

from .supervisor import StallWatchdog, SupervisedJoinMixin, resolve_policy, resolve_verifier
from ..core.policy import JoinPolicy
from ..core.verifier import Verifier

__all__ = ["TaskRuntime", "resolve_policy", "resolve_verifier"]

_STOP = object()

#: how long (seconds) a thread whose task terminated stays parked for reuse
_IDLE_TIMEOUT = 2.0
#: bound on concurrently parked threads; excess threads exit with their task
_MAX_IDLE = 32


class TaskRuntime(SupervisedJoinMixin):
    """Thread-per-task futures runtime with pluggable join verification.

    Parameters
    ----------
    policy:
        A :class:`JoinPolicy`, a registered policy name (``"TJ-SP"``,
        ``"KJ-VC"``, ...), or None for the unchecked baseline.
    fallback:
        When True (default), policy rejections are referred to Armus cycle
        detection: false positives proceed, real cycles raise
        :class:`~repro.errors.DeadlockAvoidedError`.  When False, a
        rejection faults immediately with
        :class:`~repro.errors.PolicyViolationError` (pure Algorithm 1).
    fail_mode:
        Fault boundary around policy internals (see
        :class:`~repro.core.verifier.Verifier`): ``"raise"`` (default)
        propagates policy bugs, ``"open"`` quarantines the policy and
        degrades to Armus-only checking, ``"closed"`` quarantines and
        fails every later verification deterministically with
        :class:`~repro.errors.PolicyQuarantinedError`.
    journal:
        A :class:`~repro.tools.journal.TraceJournal`, or a path string
        (the runtime then creates the journal and closes it when
        :meth:`run` exits); None (default) disables journaling.
    verifier:
        A ready :class:`~repro.core.verifier.Verifier` instance, used
        as-is; None (default) builds the local verifier from *policy*.
    default_join_timeout:
        Runtime-wide deadline (seconds) applied to every join that does
        not pass an explicit ``timeout``; None (default) means unbounded.
    watchdog:
        True (default) to supervise blocked joins with a
        :class:`~repro.runtime.supervisor.StallWatchdog`; a float to set
        its scan interval; an existing watchdog instance to share one;
        False to disable.
    on_unjoined_failure:
        What :meth:`run` does about tasks that failed but whose futures
        were never joined: ``"warn"`` (default), ``"raise"`` (re-raise
        the first such failure as :class:`TaskFailedError`), or
        ``"ignore"``.  Exact: :meth:`run` waits for every forked task
        to terminate before reaping.
    clock:
        The supervision clock (deadlines, watchdog ticks, retry
        backoff); None (default) uses the wall clock.  A
        :class:`~repro.runtime.sim.VirtualClock` makes every timed wait
        deterministic.

    A runtime instance hosts exactly one root task (one :meth:`run` call):
    the verifier data structures assume a single fork tree.
    """

    def __init__(
        self,
        policy: Union[None, str, JoinPolicy] = "TJ-SP",
        *,
        fallback: bool = True,
        fail_mode: str = "raise",
        journal: Union[None, str, object] = None,
        verifier: Optional[Verifier] = None,
        default_join_timeout: Optional[float] = None,
        watchdog: Union[bool, float, StallWatchdog] = True,
        on_unjoined_failure: str = "warn",
        clock=None,
    ) -> None:
        self._threads_started = 0
        # LIFO stack of parked workers' handoff channels: the most
        # recently parked thread (warmest stack/caches) is reused first.
        self._idle_workers: list[SimpleQueue] = []
        self._idle_enabled = True
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
    # introspection
    # ------------------------------------------------------------------
    @property
    def threads_started(self) -> int:
        """OS threads actually created (``<= tasks_started`` with pooling)."""
        return self._threads_started

    @property
    def idle_threads(self) -> int:
        """Threads currently parked awaiting reuse."""
        with self._lock:
            return len(self._idle_workers)

    def _metrics_snapshot(self) -> dict:
        out = super()._metrics_snapshot()
        out["tasks_started"] = self._tasks_started
        out["threads_started"] = self._threads_started
        out["idle_threads"] = self.idle_threads
        return out

    # ------------------------------------------------------------------
    # the thread hand-off
    # ------------------------------------------------------------------
    def _close(self) -> None:
        """Top-level implicit finish: wait for every forked task to
        terminate, then stop the parked threads."""
        self._await_tasks()
        with self._lock:
            self._idle_enabled = False
            channels = list(self._idle_workers)
            self._idle_workers.clear()
        for channel in channels:
            channel.put(_STOP)

    def _dispatch(self, item: tuple) -> None:
        """Hand a forked task to a parked thread, or start one."""
        try:
            # One atomic pop, no lock: a parked thread that times out
            # removes its channel under the lock and learns from a
            # failed removal that this pop claimed it.
            channel = self._idle_workers.pop()
        except IndexError:
            with self._lock:
                self._threads_started += 1
                count = self._threads_started
            threading.Thread(
                target=self._worker_main,
                args=(item,),
                name=f"repro-worker-{count}",
                daemon=True,
            ).start()
        else:
            channel.put(item)

    def _worker_main(self, item: tuple) -> None:
        channel: Optional[SimpleQueue] = None
        while True:
            retry_delay = self._execute(item)
            if retry_delay is not None:
                # Re-run the same item inline: the future is still
                # pending (joiners keep blocking) and _prepare_retry has
                # already re-pointed the task at a fresh vertex.
                if retry_delay > 0.0:
                    self._clock.sleep(retry_delay)
                continue
            # Park for reuse: publish our handoff channel and wait for
            # the next fork (bounded by _IDLE_TIMEOUT / _MAX_IDLE).
            if channel is None:
                channel = SimpleQueue()
            with self._lock:
                self._task_ended_locked()
                if not self._idle_enabled or len(self._idle_workers) >= _MAX_IDLE:
                    return
                self._idle_workers.append(channel)
            try:
                item = channel.get(timeout=_IDLE_TIMEOUT)
            except Empty:
                with self._lock:
                    try:
                        self._idle_workers.remove(channel)
                    except ValueError:
                        claimed = True  # a fork popped us as we timed out
                    else:
                        claimed = False
                if not claimed:
                    return
                # The racing fork's item (or the drain's stop token) is
                # already in flight to our channel; take it.
                item = channel.get()
            if item is _STOP:
                return
