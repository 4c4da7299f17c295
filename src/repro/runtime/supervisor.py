"""Supervision for the blocking runtimes: deadlines, watchdog, reaper.

The paper's avoidance machinery guarantees that *verified* joins never
close a cycle — but with ``policy=None`` (the overhead baseline), with
``fallback=False`` misconfiguration, or simply with a joinee that never
terminates, the threaded and pool runtimes could still block an OS
thread forever with no diagnosis.  This module gives them the same
no-hang guarantee the cooperative scheduler has had from the start:

* **join deadlines** — every supervised wait accepts a deadline and
  raises :class:`~repro.errors.JoinTimeoutError` (carrying the blocked
  edge) when it expires, after unregistering the wait-for edge;
* **a stall watchdog** — :class:`StallWatchdog`, a background monitor
  that periodically copies the runtime's waits-for graph (the one store
  of its blocked joins: the Armus detector's graph with the fallback on,
  a bare :class:`~repro.armus.graph.WaitsForGraph` otherwise, so it
  works even for ``policy=None`` / ``fallback=False``), diagnoses cycles
  of blocked joins, and delivers
  :class:`~repro.errors.DeadlockDetectedError` (cycle attached) to every
  blocked task in the cycle instead of letting them hang;
* **cooperative cancellation** — blocked waits observe the joiner's
  :class:`~repro.runtime.task.CancelToken` and abort with
  :class:`~repro.errors.TaskCancelledError`;
* **an unjoined-failure reaper** — tasks whose futures fail but are
  never joined are surfaced at runtime shutdown (warn or raise).

Blocked waits are **event-driven**: each :class:`BlockedJoin` record
carries a wake event, and every source that can end the wait delivers a
*targeted notify* to it — task completion (via the future's waker list),
cancellation (via the token's waker list), and watchdog verdicts (via
:meth:`BlockedJoin.deliver`).  Deadlines bound the OS-level wait
directly.  A wait therefore performs O(1) wakeups per state change, not
O(duration / tick) polls, and a join unblocks the moment its joinee
terminates.  Two deliberate exceptions re-introduce a bounded tick:

* the **main thread** re-checks every ``_MAIN_TICK`` seconds so Ctrl-C
  is honoured promptly on every platform (an untimed lock wait can
  swallow ``KeyboardInterrupt`` on some of them);
* a **saturated pool worker** (no idle worker, no headroom to
  compensate) ticks at ``_MIN_TICK``..``_MAX_TICK`` with exponential
  backoff and runs the runtime's *helper* callback between waits, so
  queued work is never starved past the compensation cap (see
  ``WorkSharingRuntime._before_block``).

The waker protocol is lock-free under the GIL by ordering alone: every
writer sets its condition flag (``future._done``, ``token._cancelled``,
``record.exc``) *before* firing the wake event, and the waiter clears
the event *before* re-checking the flags — a wake that lands during the
re-check leaves the event set, so the next wait falls through.

``join_batch`` adds a **collective pre-wait**: all blocking edges of a
batch are registered at once — through the same Armus check a permitted
join faces — against one shared wake event, and a
countdown latch fires a *single* notify when the last joinee completes
(or the first failure arrives, when failures abort the batch) — one
wakeup per drain instead of one blocked wait per future.  The harvest
that follows replays the exact sequential verification protocol with
every joinee already terminated.  A single blocking join is the same
wait over a batch of one: its record is its own waker.

:class:`SupervisedJoinMixin` holds the task lifecycle of
:class:`~repro.runtime.threaded.TaskRuntime`,
:class:`~repro.runtime.pool.WorkSharingRuntime` and
:class:`~repro.runtime.procs.ProcessRuntime` — the verifier stack, the
root task's ``run``, ``fork`` and the task body — and the join protocol
over that one blocked wait.  The runtimes differ only in how a forked
task reaches a thread and in the hooks (`_open`, `_close`,
`_before_block`, `_claim`/`_run_nested`) around the root task and a
block.  Only the pool claims: a join whose joinee still waits in its
queue runs that body on the joiner's thread as the wait, with the
wait's record in the graph and its ``block``/``unblock`` journalled.
"""

from __future__ import annotations

import threading
import time
import warnings
from time import perf_counter_ns
from typing import Any, Callable, List, Optional, Sequence, TYPE_CHECKING, Union

from ..armus.graph import Entry, WaitsForGraph
from ..armus.hybrid import HybridVerifier
from ..core.policy import JoinPolicy, NullPolicy, make_policy
from ..core.verifier import Verifier
from ..obs import active as _active_telemetry
from ..errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    JoinTimeoutError,
    PolicyViolationError,
    RuntimeStateError,
    TaskCancelledError,
    TaskFailedError,
    UnjoinedTaskWarning,
)
from ..formal.deadlock import find_cycle
from .context import require_current_task, task_scope
from .future import Future
from .task import TaskHandle, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from .retry import RetryPolicy

__all__ = [
    "BlockedJoin",
    "StallWatchdog",
    "SupervisedJoinMixin",
    "WallClock",
    "WALL_CLOCK",
    "resolve_policy",
    "resolve_verifier",
]


class WallClock:
    """The default clock of the supervision layer: real time.

    Everything time-dependent in this module — deadlines, watchdog
    ticks, retry backoff, the OS-level event waits — goes through a
    clock object with this interface, so a deterministic simulation can
    substitute :class:`~repro.runtime.sim.VirtualClock` and make
    ``join(timeout=)`` / watchdog scans / retry backoff fire on virtual
    time with no wall-clock sleeps.
    """

    __slots__ = ()

    @staticmethod
    def monotonic() -> float:
        return time.monotonic()

    @staticmethod
    def sleep(seconds: float) -> None:
        time.sleep(seconds)

    @staticmethod
    def wait(event: threading.Event, timeout: Optional[float] = None) -> bool:
        return event.wait(timeout)


#: the shared wall-clock instance (stateless)
WALL_CLOCK = WallClock()

#: first poll interval of a saturated-pool wait
_MIN_TICK = 0.001
#: ceiling for the poll interval of a saturated-pool wait
_MAX_TICK = 0.05
#: re-check cadence on the main thread, purely for Ctrl-C delivery —
#: completion still wakes the wait immediately via the event
_MAIN_TICK = 0.05


class BlockedJoin(Entry):
    """One currently blocked join: the wait-for edge ``joiner -> joinee``.

    The record is the edge's entry in the runtime's waits-for graph, and
    doubles as the wait's *wake slot*: ``_wake`` is the event the blocked
    thread sleeps on (the joiner's cancel token fires it), and :meth:`set`
    (the waker protocol) is what the joinee's future fires on a single
    join.
    ``exc`` is the delivery slot: the watchdog stores an exception via
    :meth:`deliver` and the blocked task raises it on wakeup.  Attaching
    both slots to the *record* (not the task) makes delivery race-free:
    a record is owned by exactly one wait and dies with it, so a
    diagnosis can never leak into some later, unrelated join of the same
    task.

    Batch pre-waits share one wake event across all their records
    (``wake=`` argument), so the whole batch sleeps — and wakes — as one.
    ``wakeups`` counts how many times the owning wait returned from an
    OS-level sleep; the no-busy-wait tests read it.
    """

    __slots__ = ("future", "since", "exc", "wakeups", "_wake")

    def __init__(
        self,
        joiner: "TaskHandle",
        joinee: "TaskHandle",
        future: "Future",
        wake: Optional[threading.Event] = None,
    ) -> None:
        super().__init__(joiner, joinee)
        self.future = future
        self.since = time.monotonic()
        self.exc: Optional[BaseException] = None
        self.wakeups = 0
        self._wake = wake if wake is not None else threading.Event()

    def set(self) -> None:
        """Waker protocol: wake the blocked thread (idempotent)."""
        self._wake.set()

    def deliver(self, exc: BaseException) -> None:
        """Store *exc* for the blocked task and wake it immediately."""
        self.exc = exc  # flag before wake: the waiter re-checks after clear
        self._wake.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BlockedJoin {self.joiner.name} -> {self.joinee.name}>"


class StallWatchdog:
    """Background monitor that converts true join-cycle stalls into errors.

    Every ``interval`` seconds the watchdog copies the runtime's
    waits-for graph and looks for cycles.  A cycle
    whose every member's future is still pending can never resolve (each
    joinee is itself blocked, and an edge only disappears when its
    joinee terminates), so it is a true deadlock: the watchdog delivers
    a :class:`DeadlockDetectedError` carrying the cycle to every blocked
    task in it — a targeted wake, not a flag the waits must poll for.
    Cycles containing an already-completed future are snapshot
    transients (the waiter is about to unregister) and are skipped —
    which is what makes false positives impossible.

    The monitor thread is started lazily by the first blocked join and
    exits after the graph has stayed empty for ``idle_scans``
    consecutive scans; it restarts on the next blocked join.  Idle
    runtimes therefore hold no thread and can be garbage collected.
    """

    def __init__(
        self,
        store: WaitsForGraph,
        *,
        interval: float = 0.1,
        idle_scans: int = 10,
        clock: Optional[WallClock] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("watchdog interval must be positive")
        self.store = store
        self.interval = interval
        self.clock = clock if clock is not None else WALL_CLOCK
        self._idle_scans = idle_scans
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._running = False
        self._stopped = False
        #: total deadlock diagnoses delivered (read by tests/CLI)
        self.deadlocks_detected = 0

    # ------------------------------------------------------------------
    def ensure_running(self) -> None:
        """Start the monitor thread if it is not already alive.

        The running flag — not ``Thread.is_alive()`` — is the source of
        truth: the monitor only clears it under the lock *after*
        re-checking that the graph is empty, so a join registered
        concurrently with the monitor's idle exit can never be left
        unwatched.
        """
        with self._lock:
            if self._stopped or self._running:
                return
            self._running = True
            self._thread = threading.Thread(
                target=self._run, name="repro-watchdog", daemon=True
            )
            self._thread.start()

    def stop(self) -> None:
        """Permanently stop the monitor (used at runtime shutdown)."""
        with self._lock:
            self._stopped = True

    # ------------------------------------------------------------------
    def _run(self) -> None:
        idle = 0
        while True:
            self.clock.sleep(self.interval)
            with self._lock:
                if self._stopped:
                    self._running = False
                    return
            if not len(self.store):
                idle += 1
                if idle >= self._idle_scans:
                    with self._lock:
                        # Atomic with ensure_running: a waiter that
                        # registered after our check either sees
                        # _running still True here (and the non-empty
                        # graph keeps us alive), or takes the lock
                        # after us and starts a fresh monitor.
                        if len(self.store) == 0:
                            self._running = False
                            return
                    idle = 0
                continue
            idle = 0
            self.scan()

    def scan(self) -> list[tuple]:
        """One diagnosis pass; returns the cycles delivered.

        Exposed for synchronous use in tests — the background thread
        calls this on every tick.
        """
        # joiner -> joinee -> the records blocked on that edge (a batch
        # pre-wait may hold one edge twice), copied under the graph lock
        graph = self.store.adjacency()
        delivered: list[tuple] = []
        while True:
            cycle = find_cycle(graph)
            if cycle is None:
                return delivered
            # Drop this cycle's edges from the working graph either way,
            # so the loop terminates and other cycles are still found.
            edges = zip(cycle, cycle[1:] + cycle[:1])
            records = [r for joiner, joinee in edges for r in graph[joiner].pop(joinee)]
            if any(r.future.done() for r in records):
                continue  # snapshot transient: a waiter is unblocking
            stall = tuple(cycle)
            for record in records:
                if record.exc is None:
                    record.deliver(DeadlockDetectedError(cycle=stall))
            with self._lock:
                self.deadlocks_detected += len(cycle)
            delivered.append(stall)


def resolve_policy(policy: Union[None, str, JoinPolicy]) -> JoinPolicy:
    """Accept a policy instance, a registered name, or None (unchecked)."""
    if policy is None:
        return NullPolicy()
    if isinstance(policy, str):
        return make_policy(policy)
    return policy


def resolve_verifier(
    policy_obj: JoinPolicy,
    *,
    fallback: bool,
    fail_mode: str,
    journal: "Union[None, str, object]",
    verifier: "Union[None, str, Verifier]",
    runtime_name: str,
) -> tuple:
    """The construction block the blocking runtimes share.

    Resolves the journal (path string → owned :class:`TraceJournal`) and
    the verifier: None builds the usual local verifier; a
    ``"remote://host:port"`` string builds an *owned*
    :class:`~repro.service.client.RemoteVerifier` (closed when the
    runtime's ``run`` exits); a verifier instance is used as-is and left
    open (tests and chaos harnesses inspect it after the run).  When
    ``fallback`` is set the verifier — local or remote — sits inside a
    :class:`HybridVerifier`, which is what makes remote degradation
    sound: a degraded remote verifier reports ``unsound`` and Armus
    force-checks every blocking join.

    Returns ``(hybrid, verifier, journal, owns_journal, owns_verifier)``.
    """
    owns_journal = isinstance(journal, str)
    if owns_journal:
        from ..tools.journal import TraceJournal  # deferred: import cycle

        journal = TraceJournal(journal)
    owns_verifier = isinstance(verifier, str)
    if owns_verifier:
        from ..service.client import RemoteVerifier  # deferred: import cycle

        verifier = RemoteVerifier(
            verifier, policy_obj, fail_mode=fail_mode, journal=journal
        )
    if verifier is not None:
        hybrid = (
            HybridVerifier(policy_obj, fail_mode=fail_mode, verifier=verifier)
            if fallback
            else None
        )
        verifier_obj = verifier
    else:
        hybrid = (
            HybridVerifier(policy_obj, fail_mode=fail_mode, journal=journal)
            if fallback
            else None
        )
        verifier_obj = (
            hybrid.verifier
            if hybrid
            else Verifier(policy_obj, fail_mode=fail_mode, journal=journal)
        )
    if journal is not None:
        journal.log_start(
            policy=policy_obj.name, runtime=runtime_name, fail_mode=fail_mode
        )
    return hybrid, verifier_obj, journal, owns_journal, owns_verifier


class _LatchArm:
    """Per-future waker of a batch pre-wait; fires its latch once."""

    __slots__ = ("_latch", "_future", "_fired")

    def __init__(self, latch: "_CountdownLatch", future: "Future") -> None:
        self._latch = latch
        self._future = future
        self._fired = False

    def set(self) -> None:
        self._latch._arm_fired(self)


class _CountdownLatch:
    """Counts a batch's pending futures down; one wakeup per drain.

    The shared wake event fires exactly once on the happy path — when
    the *last* pending future completes — or early, on the *first*
    failure, when the batch aborts on failure (``fail_fast``).  Arms are
    idempotent (``_fired`` guarded by the latch lock), because the waker
    protocol may fire the same arm from both the registration re-check
    and the completion snapshot.
    """

    __slots__ = ("_lock", "_remaining", "_wake", "_fail_fast", "failed")

    def __init__(self, count: int, wake: threading.Event, *, fail_fast: bool) -> None:
        self._lock = threading.Lock()
        self._remaining = count
        self._wake = wake
        self._fail_fast = fail_fast
        self.failed = False

    def drained(self) -> bool:
        """The wait's ready predicate: every future done, or a fail-fast
        failure in."""
        return self._remaining == 0 or self.failed

    def _arm_fired(self, arm: _LatchArm) -> None:
        with self._lock:
            if arm._fired:
                return
            arm._fired = True
            self._remaining -= 1
            fire = self._remaining == 0
            if self._fail_fast and arm._future._exc is not None:
                self.failed = True  # flag before wake
                fire = True
        if fire:
            self._wake.set()


class SupervisedJoinMixin:
    """The task lifecycle and supervised join protocol of the blocking runtimes.

    One copy of what the runtimes share: the verifier stack and its
    ``policy``/``verifier``/``detector``/``journal`` properties, the root
    task's :meth:`run`, :meth:`fork` and the task body (:meth:`_execute`),
    and ``join``/``join_batch`` over one supervised wait (:meth:`_wait`).

    A host class calls :meth:`_init_runtime` from ``__init__`` once the
    fields its ``_metrics_snapshot`` reads exist (a host that builds its
    verifier later, in :meth:`_open`, sets ``_hybrid``/``_verifier``/
    ``_journal``/``_owns_journal``/``_owns_verifier`` itself and calls
    :meth:`_init_supervision`), and gives :meth:`fork` a
    ``_dispatch(item)`` that hands a forked task's ``(task, future, fn,
    args, kwargs)`` to a thread running :meth:`_execute`.  It may
    override :meth:`_open` and :meth:`_close` (around the root task),
    :meth:`_before_block` (the pool's compensation and help-while-blocked)
    and :meth:`_claim`/:meth:`_run_nested` (the pool's work-first joins).
    """

    def _init_runtime(
        self,
        policy: Union[None, str, JoinPolicy],
        *,
        fallback: bool,
        fail_mode: str,
        journal: Union[None, str, object],
        verifier: Union[None, str, Verifier],
        **supervision: Any,
    ) -> None:
        """Build the verifier stack (:func:`resolve_verifier`), then the
        supervision state."""
        (
            self._hybrid,
            self._verifier,
            self._journal,
            self._owns_journal,
            self._owns_verifier,
        ) = resolve_verifier(
            resolve_policy(policy),
            fallback=fallback,
            fail_mode=fail_mode,
            journal=journal,
            verifier=verifier,
            runtime_name=type(self).__name__,
        )
        self._init_supervision(**supervision)

    def _init_supervision(
        self,
        *,
        default_join_timeout: Optional[float] = None,
        watchdog: Union[bool, float, StallWatchdog] = True,
        on_unjoined_failure: str = "warn",
        clock: Optional[WallClock] = None,
    ) -> None:
        if on_unjoined_failure not in ("warn", "raise", "ignore"):
            raise ValueError(
                "on_unjoined_failure must be 'warn', 'raise' or 'ignore', "
                f"not {on_unjoined_failure!r}"
            )
        if default_join_timeout is not None and default_join_timeout < 0:
            raise ValueError("default_join_timeout must be non-negative")
        #: guards the runtime's own state and the one-root check of run()
        self._lock = threading.Lock()
        self._root_started = False
        #: forked tasks not yet terminated; ``_all_done`` is notified when
        #: the last one ends (see :meth:`_await_tasks`)
        self._outstanding = 0
        self._all_done = threading.Condition(self._lock)
        #: tasks forked through :meth:`fork`
        self._tasks_started = 0
        #: runtime-wide deadline applied to joins with no explicit timeout
        self.default_join_timeout = default_join_timeout
        #: time source for deadlines, watchdog ticks and retry backoff —
        #: swap in a VirtualClock for deterministic-simulation tests
        self._clock = clock if clock is not None else WALL_CLOCK
        #: the one store of this runtime's blocked joins
        self._store = (
            self._hybrid.detector.graph if self._hybrid is not None else WaitsForGraph()
        )
        if isinstance(watchdog, StallWatchdog):
            self._watchdog: Optional[StallWatchdog] = watchdog
        elif watchdog:
            # True takes the default scan interval; a number sets it
            self._watchdog = StallWatchdog(
                self._store,
                interval=0.1 if watchdog is True else float(watchdog),
                clock=self._clock,
            )
        else:
            self._watchdog = None
        self._on_unjoined_failure = on_unjoined_failure
        self._failed_futures: List["Future"] = []
        self._failed_lock = threading.Lock()
        self._tasks_retried_count = 0
        # Telemetry is captured once, at construction: when a session is
        # active the runtime registers itself (for the live `top` view)
        # and its counters (the uniform snapshot-source protocol); when
        # none is, every hot-path site below reduces to one `is None`.
        obs = _active_telemetry()
        self._obs = obs
        if obs is not None:
            obs.attach_runtime(self)
            obs.registry.add_source("runtime", self._metrics_snapshot)

    def _metrics_snapshot(self) -> dict:
        """Uniform stats-source protocol; concrete runtimes extend it."""
        return {
            "tasks_retried": self._tasks_retried_count,
            "blocked_joins": len(self._store),
            "deadlocks_detected": (
                self._watchdog.deadlocks_detected if self._watchdog is not None else 0
            ),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def policy(self) -> JoinPolicy:
        return self._verifier.policy

    @property
    def verifier(self) -> Verifier:
        return self._verifier

    @property
    def detector(self):
        """The Armus detector, or None when ``fallback=False``."""
        return self._hybrid.detector if self._hybrid is not None else None

    @property
    def journal(self):
        """The trace journal, or None when journaling is disabled."""
        return self._journal

    @property
    def watchdog(self) -> Optional[StallWatchdog]:
        """The stall watchdog, or None when supervision is disabled."""
        return self._watchdog

    def blocked_joins(self) -> list[BlockedJoin]:
        """A snapshot of the joins currently blocked in this runtime."""
        return self._store.entries()

    @property
    def tasks_retried(self) -> int:
        """Retry attempts executed (a task retried twice counts twice)."""
        return self._tasks_retried_count

    @property
    def tasks_started(self) -> int:
        """Tasks forked (retries re-run a task and are not counted again)."""
        return self._tasks_started

    # ------------------------------------------------------------------
    # hooks for the concrete runtimes
    # ------------------------------------------------------------------
    def _open(self) -> None:
        """Called by :meth:`run` before the root task starts."""

    def _close(self) -> None:
        """Called by :meth:`run` once the root task has returned or raised."""

    def _before_block(self) -> tuple:
        """Called once when a join is about to genuinely block.

        Returns ``(helper, tick)`` for the blocking thread: a callback
        the wait runs after each wakeup (True when it did work), and a
        predicate saying whether the wait must poll for such work now;
        either may be None.
        """
        return None, None

    def _claim(self, future: "Future") -> Optional[tuple]:
        """Called when a join with no deadline is about to block: take the
        joinee's task off this runtime's queue if it still waits there.

        The claimed ``(task, future, fn, args, kwargs)`` item then runs
        through :meth:`_run_nested` on the joiner's own thread, as the
        wait (the work-first join); None means park.  Only a runtime
        that queues its tasks can claim one.
        """
        return None

    def _run_nested(self, item: tuple, inline: bool) -> None:
        """Run a claimed item's body on the calling thread (see :meth:`_claim`)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # task lifecycle
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Execute *fn* as the root task in the calling thread.

        Returns *fn*'s result; exceptions propagate unchanged.  After the
        root, the runtime's :meth:`_close` waits: the thread runtime and
        the pool for every forked task to terminate, joined or not (a
        top-level implicit finish), the process runtime for its workers
        to stop.  Then an owned verifier and journal close and, on a
        clean return, failures of never-joined futures are surfaced per
        ``on_unjoined_failure``.  A runtime hosts one root: the
        verifier's data structures assume a single fork tree.
        """
        with self._lock:
            if self._root_started:
                raise RuntimeStateError(
                    "this runtime already hosted a root task; create a fresh "
                    f"{type(self).__name__} per program run"
                )
            self._root_started = True
        try:
            self._open()
            root = TaskHandle(self._verifier.on_init(), code=fn, name="root")
            root.state = TaskState.RUNNING
            obs = self._obs
            tracer = obs.tracer if obs is not None else None
            # The root span anchors the trace: every span and dispatch
            # under it inherits its trace id.
            handle = tracer.begin_span("run") if tracer is not None else None
            try:
                with task_scope(root):
                    result = fn(*args, **kwargs)
                root.state = TaskState.DONE
            except BaseException:
                root.state = TaskState.FAILED
                raise
            finally:
                if tracer is not None:
                    tracer.end_span(handle, args={"task": root.name})
        finally:
            self._close()
            if self._owns_verifier:
                self._verifier.close()
            if self._journal is not None and self._owns_journal:
                self._journal.close()
        self._reap_unjoined()
        return result

    def fork(
        self, fn: Callable[..., Any], *args: Any, retry: Optional["RetryPolicy"] = None, **kwargs: Any
    ) -> Future:
        """``async fn(*args)``: start *fn* in a new task; return its Future.

        Must be called from inside a task of this runtime (the forking task
        determines the new vertex's parent).  Forking is a cancellation
        point: a cancelled task faults here with
        :class:`~repro.errors.TaskCancelledError` instead of growing the
        tree further.

        ``retry`` (a :class:`~repro.runtime.retry.RetryPolicy`) makes a
        failing task body re-run with exponential backoff; each attempt
        is a fresh fork policy-wise (new vertex under the same parent),
        and the future only completes with the final attempt's outcome —
        joiners block straight through intermediate failures.
        """
        parent = require_current_task()
        parent.cancel_token.raise_if_cancelled(parent)
        obs = self._obs
        if obs is not None:
            _t0 = perf_counter_ns()
        if retry is not None and parent.fork_lock is None:
            # Retry re-forks run on whatever thread observed the failure
            # and race the parent's own forks; Section 5.1 forbids two
            # concurrent AddChild calls on one parent, so serialise them.
            parent.fork_lock = threading.Lock()
        lock = parent.fork_lock
        if lock is not None:
            with lock:
                vertex = self._verifier.on_fork(parent.vertex)
        else:
            vertex = self._verifier.on_fork(parent.vertex)
        task = TaskHandle(vertex, code=fn, parent_uid=parent.uid)
        future = Future(self, task)
        if retry is not None:
            future._retry = (retry, parent)
        with self._lock:
            self._tasks_started += 1
            self._outstanding += 1
        self._dispatch((task, future, fn, args, kwargs))
        if obs is not None:
            dur = perf_counter_ns() - _t0
            obs.fork_ns.observe(dur)
            if obs.tracer is not None:
                obs.tracer.complete(
                    "fork",
                    _t0,
                    dur,
                    args={"child": task.name, "parent": parent.name},
                )
        return future

    def _await_tasks(self) -> None:
        """Block until every forked task has terminated."""
        with self._all_done:
            while self._outstanding:
                self._all_done.wait()

    def _task_ended_locked(self) -> None:
        """Count one forked task terminated; the caller holds ``_lock``."""
        self._outstanding -= 1
        if not self._outstanding:
            self._all_done.notify_all()

    def _execute(self, item: tuple) -> Optional[float]:
        """Run one forked task's body in the calling thread.

        Returns the backoff delay when the body failed and a retry is due
        (the future stays pending, the task re-pointed at a fresh vertex;
        the caller re-runs *item*), else None once the future is
        complete.  The ``complete`` record is journalled *before* the
        future completes: once the root has joined the future, ``run``
        may close an owned journal.
        """
        task, future, fn, args, kwargs = item
        task.state = TaskState.RUNNING
        obs = self._obs
        tracer = obs.tracer if obs is not None else None
        with task_scope(task):
            handle = tracer.begin_span("run") if tracer is not None else None
            try:
                value = fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - delivered at join
                task.state = TaskState.FAILED
                delay = self._prepare_retry(future, exc)
                if delay is not None:
                    return delay
                finish, value = future._set_exception, exc
            else:
                task.state = TaskState.DONE
                finish = future._set_result
            finally:
                if tracer is not None:
                    tracer.end_span(handle, args={"task": task.name})
        try:
            if self._journal is not None:
                self._journal.log_complete(task.vertex, ok=task.state is TaskState.DONE)
        finally:
            finish(value)  # even when the write fails: no joiner waits forever
        return None

    # ------------------------------------------------------------------
    # failure bookkeeping (the unjoined-failure reaper)
    # ------------------------------------------------------------------
    def _note_failure(self, future: "Future") -> None:
        with self._failed_lock:
            self._failed_futures.append(future)

    def _reap_unjoined(self) -> None:
        """Surface failures of tasks whose futures were never joined.

        Called at runtime shutdown.  Cancelled tasks are exempt — their
        failure is the deliberate outcome of ``Future.cancel()``.
        """
        if self._on_unjoined_failure == "ignore":
            return
        with self._failed_lock:
            failed = list(self._failed_futures)
        leaked = [
            f
            for f in failed
            if not f._joined and not isinstance(f._exc, TaskCancelledError)
        ]
        if not leaked:
            return
        if self._on_unjoined_failure == "raise":
            first = leaked[0]
            raise TaskFailedError(first.task, first._exc)
        for f in leaked:
            warnings.warn(
                f"task {f.task.name} failed with {f._exc!r} but its future "
                "was never joined",
                UnjoinedTaskWarning,
                stacklevel=2,
            )

    # ------------------------------------------------------------------
    # task retry (used by the runtimes' worker loops)
    # ------------------------------------------------------------------
    def _prepare_retry(self, future: "Future", exc: BaseException) -> Optional[float]:
        """Decide whether a failed task body should be re-run.

        Returns the backoff delay (seconds) when a retry is due — with
        the future's task already re-pointed at a **fresh vertex** (a new
        ``AddChild`` under the original parent, so TJ re-verifies the
        retry like any younger sibling) — or None when the failure is
        final and the caller must complete the future with *exc*.

        The :class:`~repro.runtime.task.TaskHandle` itself is reused
        across attempts: runtime identity (the waits-for graph and the
        blocked joiners' records in it) must stay stable so a
        join blocked across the retry still names the right task and the
        watchdog still sees true cycles.  Only the *policy* identity —
        the vertex — is fresh.

        A join already blocked on this future was verified against the
        *old* vertex, and the retry can only narrow the permitted
        relation (the no-widening property), never widen it — so such a
        verdict may go stale in the safe direction only.  To keep full
        avoidance (not just watchdog detection) for those edges, any
        blocked edge whose verdict does not hold against the new vertex
        is upgraded to a *forced* edge in the detector — one pass over
        the graph — which re-enables cycle checking on every join while
        it lives.
        """
        state = future._retry
        if state is None:
            return None
        spec, parent = state
        task = future.task
        if task.cancel_token.cancelled() or not spec.retryable(exc):
            return None
        attempt = future._retry_attempt + 1
        if attempt >= spec.max_attempts:
            return None
        old_vertex = task.vertex
        # fork_lock was created by the retry-enabled fork (which
        # happens-before this failure), so it is always present here.
        with parent.fork_lock:
            new_vertex = self._verifier.on_fork(parent.vertex)
        if self._hybrid is not None:
            verifier = self._verifier

            def stale(record: BlockedJoin) -> bool:
                if record.future is not future:
                    return False
                if verifier.unsound:
                    return True
                try:
                    return not verifier.policy.permits(record.joiner.vertex, new_vertex)
                except Exception:  # broken policy: be conservative
                    return True

            self._hybrid.detector.force(stale)
        delay = spec.delay(attempt, site=getattr(task.code, "__name__", None))
        task.vertex = new_vertex
        task.state = TaskState.RUNNING
        future._retry_attempt = attempt
        with self._failed_lock:
            self._tasks_retried_count += 1
        obs = self._obs
        if obs is not None and obs.tracer is not None:
            obs.tracer.instant(
                "retry",
                cat="task",
                args={"task": task.name, "attempt": attempt, "error": repr(exc)},
            )
        journal = self._verifier.journal
        if journal is not None:
            journal.log_retry(old_vertex, new_vertex, attempt, repr(exc))
        return delay

    # ------------------------------------------------------------------
    # the join operations (called via Future.join / user code)
    # ------------------------------------------------------------------
    def _resolve_deadline(
        self, timeout: Optional[float]
    ) -> tuple[Optional[float], Optional[float]]:
        if timeout is None:
            timeout = self.default_join_timeout
        if timeout is None:
            return None, None
        return self._clock.monotonic() + timeout, timeout

    def join(self, future: "Future", *, timeout: Optional[float] = None):
        """Join one future; ``timeout`` overrides ``default_join_timeout``."""
        if future._runtime is not self:
            raise RuntimeStateError("future belongs to a different runtime")
        joiner = require_current_task()
        deadline, timeout_value = self._resolve_deadline(timeout)
        return self._join_one(joiner, future, None, deadline, timeout_value)

    def join_batch(
        self,
        futures: Sequence["Future"],
        *,
        return_exceptions: bool = False,
        timeout: Optional[float] = None,
        cancel_remaining: bool = False,
    ) -> list:
        """Join several futures, verifying the whole batch in one call.

        For ``stable_permits`` policies (all TJ variants and the null
        baseline) the permission verdicts are precomputed with one
        ``Verifier.check_joins`` call — one stats update and one pass
        through the policy's ``permits_many`` for the whole batch —
        and the joins then proceed without re-checking.  Learning (KJ)
        policies fall back to per-future verification, since their
        verdicts may flip as earlier joins in the batch teach knowledge.

        When every verdict in the batch is known permitted, the batch
        first blocks *collectively*: all wait-for edges are registered —
        through the Armus check any permitted join faces — against one
        shared wake event and a countdown latch delivers a single wakeup
        when the last joinee completes (or the first failure arrives, if
        failures abort the batch) — after which the per-future joins
        below run without blocking.  Flagged or unknown verdicts skip the
        pre-wait so policy faults and Armus referrals fire at exactly the
        sequential position.

        Results are returned in input order.  With
        ``return_exceptions=True``, a failed task contributes its
        :class:`~repro.errors.TaskFailedError` in place of a result
        instead of raising (policy faults, avoided deadlocks, timeouts
        and watchdog diagnoses always raise).  Any raised
        ``TaskFailedError`` — and every collected one — carries
        ``batch_index``, the position of the failed future in the batch.

        ``timeout`` is one deadline shared by the whole batch.  With
        ``cancel_remaining=True``, an exception that aborts the batch
        first requests cooperative cancellation of the not-yet-joined
        futures.
        """
        futures = list(futures)
        for f in futures:
            if f._runtime is not self:
                raise RuntimeStateError("future belongs to a different runtime")
        if not futures:
            return []
        joiner = require_current_task()
        deadline, timeout_value = self._resolve_deadline(timeout)
        if self._verifier.policy.stable_permits:
            # Vertex handles are opaque to the runtime; under the flat
            # TJ-SP core they are plain ints, so this list IS the list
            # of ids the kernel's batch loop consumes — no policy node
            # objects are ever materialised on this path.
            verdicts = self._verifier.check_joins(
                joiner.vertex, [f.task.vertex for f in futures]
            )
            flags: list[Optional[bool]] = [not ok for ok in verdicts]
        else:
            flags = [None] * len(futures)
        if len(futures) > 1 and all(flag is False for flag in flags):
            # Every join is known permitted: safe to park once on the
            # whole batch before harvesting.  (A flagged or unknown
            # verdict must instead fault / refer to Armus at its own
            # sequential position, possibly before later joinees ever
            # complete — pre-waiting on those could hang.)
            self._batch_prewait(
                joiner,
                futures,
                deadline,
                timeout_value,
                fail_fast=not return_exceptions,
            )
        results = []
        for index, (future, flagged) in enumerate(zip(futures, flags)):
            try:
                results.append(
                    self._join_one(joiner, future, flagged, deadline, timeout_value)
                )
            except TaskFailedError as exc:
                exc.batch_index = index
                if return_exceptions:
                    results.append(exc)
                    continue
                if cancel_remaining:
                    for later in futures[index + 1 :]:
                        later.cancel()
                raise
            except BaseException:
                if cancel_remaining:
                    for later in futures[index + 1 :]:
                        later.cancel()
                raise
        return results

    def _batch_prewait(
        self,
        joiner: "TaskHandle",
        futures: Sequence["Future"],
        deadline: Optional[float],
        timeout_value: Optional[float] = None,
        *,
        fail_fast: bool,
    ) -> None:
        """Collectively block on a batch of known-permitted joins.

        Registers one :class:`BlockedJoin` per pending future — all
        sharing one wake event, so Armus and the watchdog see every edge
        — and waits until the countdown latch fires.  Never raises
        timeouts, task failures or avoided deadlocks itself: on deadline
        expiry, a fail-fast failure, or an edge Armus refuses (possible
        only while a forced edge is live or the verifier is unsound) it
        simply returns, and the sequential harvest reproduces the exact
        sequential outcome (the earliest failing, refused or still
        pending future in input order wins).  Watchdog diagnoses and
        cancellation do raise here, as they would in any blocked wait.
        """
        pending = [f for f in futures if not f._done]
        if not pending:
            return
        if fail_fast and any(f._done and f._exc is not None for f in futures):
            # A failure is already in hand and failures abort the batch:
            # the harvest must raise it (and e.g. cancel the remaining
            # futures) *now* — pre-waiting on siblings that might only
            # wind down after that cancellation would deadlock.
            return
        wake = threading.Event()
        latch = _CountdownLatch(len(pending), wake, fail_fast=fail_fast)
        records = [BlockedJoin(joiner, f.task, f, wake=wake) for f in pending]
        if self._hybrid is None:
            self._store.add(*records)
        elif not self._hybrid.detector.block_all(records, force_check=self._verifier.unsound):
            return  # an edge would close a cycle: the harvest refuses its join
        arms = [_LatchArm(latch, f) for f in pending]
        self._wait(joiner, records, arms, latch.drained, deadline, timeout_value)

    def _join_one(
        self,
        joiner: "TaskHandle",
        future: "Future",
        flagged: Optional[bool],
        deadline: Optional[float] = None,
        timeout_value: Optional[float] = None,
    ):
        """Join one future; ``flagged`` is a precomputed verdict or None."""
        joiner.cancel_token.raise_if_cancelled(joiner)
        joinee = future.task
        joiner_vertex, joinee_vertex = joiner.vertex, joinee.vertex
        journal = self._verifier.journal
        if self._hybrid is not None:
            # The wait's record exists before its edge does, so
            # registering it through the Armus check is one critical
            # section on the store, and releasing it another.
            record = None if future._done else BlockedJoin(joiner, joinee, future)
            try:
                self._hybrid.begin_join(
                    joiner,
                    joinee,
                    joiner_vertex,
                    joinee_vertex,
                    joinee_done=record is None,
                    flagged=flagged,
                    entry=record,
                )
            except DeadlockAvoidedError:
                if journal is not None:
                    journal.log_avoided(joiner_vertex, joinee_vertex)
                raise
        else:
            if flagged is None:
                self._verifier.require_join(joiner_vertex, joinee_vertex)
            elif flagged:
                raise PolicyViolationError(
                    self._verifier.policy.name, joiner_vertex, joinee_vertex
                )
            # Completion is read after the verdict: a joinee that ends
            # during a sidecar round trip needs no record and no wait.
            record = None if future._done else BlockedJoin(joiner, joinee, future)
            if record is not None:
                self._store.add(record)
        if record is not None:
            # A join with a deadline parks: an inline body cannot time out.
            claimed = self._claim(future) if deadline is None else None
            if not self._wait(
                joiner, (record,), (record,), future.done, deadline, timeout_value, claimed
            ):
                raise JoinTimeoutError(joiner, joinee, timeout_value)
        self._verifier.on_join_completed(joiner.vertex, joinee.vertex)
        if journal is not None:
            journal.log_join(joiner_vertex, joinee_vertex)
        future._joined = True
        return future._result_now()

    def _wait(
        self,
        joiner: "TaskHandle",
        records: Sequence[BlockedJoin],
        wakers: Sequence[Any],
        ready: Callable[[], bool],
        deadline: Optional[float],
        timeout_value: Optional[float],
        claimed: Optional[tuple] = None,
    ) -> bool:
        """The supervised blocked wait of every join: park until ``ready()``.

        *records* are the wait's entries, already registered in the
        runtime's waits-for graph and sharing one wake event; *wakers*
        pairs each with the waker its future fires on completion (a
        single join's record is its own waker, a batch's are latch arms).
        Sleeps on the event and re-checks, in priority order: a watchdog
        diagnosis (``record.exc``, raised), the joiner's cancellation
        (raised as :class:`TaskCancelledError`), ``ready()`` (returns
        True) and the deadline (returns False; the caller raises what
        fits).  All three notify sources deliver targeted wakes, so off
        the main thread an unbounded wait performs one OS sleep per state
        change.  The helper of :meth:`_before_block` may run queued work
        after each wakeup, and its tick asks for ``_MIN_TICK``..
        ``_MAX_TICK`` polling (the pool's help-while-blocked loop).
        However the wait ends, the records leave the graph, their unblock
        is journalled and the wakers are removed: no supervision state
        outlives it.

        *claimed* is a single join's still-queued joinee (see
        :meth:`_claim`): its body runs first, on this thread, while the
        record stays in the graph, and the loop then finds the future
        done, so the inline join raises and journals exactly what a
        parked one would; a ``KeyboardInterrupt`` that ended the body on
        the main thread is raised as such, not as a task failure.
        """
        journal = self._verifier.journal
        # Edge keys are captured once so the unblock below pairs exactly
        # with the block even if a retry re-points a vertex mid-wait.
        edges = (
            [(joiner.vertex, r.joinee.vertex) for r in records] if journal is not None else ()
        )
        for a, b in edges:
            journal.log_block(a, b, timeout=timeout_value)
        if self._watchdog is not None:
            self._watchdog.ensure_running()
        helper, helper_tick = self._before_block() if claimed is None else (None, None)
        wake = records[0]._wake
        token = joiner.cancel_token
        on_main = threading.current_thread() is threading.main_thread()
        backoff = _MIN_TICK
        rounds = 0
        prev_state = joiner.state
        joiner.state = TaskState.BLOCKED
        obs = self._obs
        t0 = perf_counter_ns() if obs is not None else 0
        try:
            if claimed is not None:
                self._run_nested(claimed, True)
                if on_main and isinstance(claimed[1]._exc, KeyboardInterrupt):
                    # Ctrl-C hit the body this thread ran for the wait: it
                    # ends the wait, as it ends a parked main-thread wait.
                    raise claimed[1]._exc
            for record, waker in zip(records, wakers):
                record.future._add_waiter(waker)
            token._add_waker(wake)
            while True:
                wake.clear()
                # Re-check every condition after the clear: a waker firing
                # in between re-sets the event, so the next wait falls through.
                for record in records:
                    if record.exc is not None:
                        raise record.exc
                if token.cancelled():
                    raise TaskCancelledError(joiner)
                if ready():
                    return True
                wait = None
                if deadline is not None:
                    wait = deadline - self._clock.monotonic()
                    if wait <= 0:
                        return False
                if on_main and (wait is None or _MAIN_TICK < wait):
                    wait = _MAIN_TICK
                if helper_tick is not None and helper_tick():
                    if wait is None or backoff < wait:
                        wait = backoff
                self._clock.wait(wake, wait)
                rounds += 1
                for record in records:
                    record.wakeups += 1
                if helper is not None and helper():
                    backoff = _MIN_TICK  # we did useful work; stay responsive
                else:
                    backoff = min(backoff * 2, _MAX_TICK)
        finally:
            joiner.state = prev_state
            token._discard_waker(wake)
            for record, waker in zip(records, wakers):
                record.future._discard_waiter(waker)
            for record in records:
                # the store is the Armus graph when there is one: end_join
                self._store.remove(joiner, record.joinee)
            for a, b in edges:
                journal.log_unblock(a, b)
            if obs is not None:
                self._observe_block(t0, rounds, joiner, records)

    def _observe_block(
        self, t0: int, wakeups: int, joiner: "TaskHandle", records: Sequence[BlockedJoin]
    ) -> None:
        """Telemetry of one finished blocked wait (a session is active)."""
        obs = self._obs
        tracer = obs.tracer
        if tracer is not None:
            # wake lands inside the block span: its timestamp is
            # taken before the span's end below.
            tracer.instant("wake", cat="join", args={"task": joiner.name})
        dur = perf_counter_ns() - t0
        obs.blocked_wait_ns.observe(dur)
        obs.blocked_waits.inc()
        obs.wakeups.inc(wakeups)
        if tracer is not None:
            args = {"task": joiner.name}
            if len(records) == 1:
                args["joinee"] = records[0].joinee.name
            else:
                args["batch"] = len(records)
            tracer.complete("block", t0, dur, cat="join", args=args)
