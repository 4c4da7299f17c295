"""The multi-process task runtime: verified fork/join past the GIL.

:class:`ProcessRuntime` keeps the verified fork/join API of
:class:`~repro.runtime.threaded.TaskRuntime` — ``fork``, ``join``,
``join_batch``, and the ``finish`` construct on top of them — but runs
the forked tasks across a pool of **worker processes**, so CPU-bound
task bodies scale with cores instead of serialising on the GIL.

Architecture
------------
The parent process hosts the root task and dispatches every
``ProcessRuntime.fork`` to a worker over a per-worker queue; the
dispatched function runs inside the worker's own private
:class:`~repro.runtime.pool.WorkSharingRuntime` (the *engine*: a pool of
threads the worker opens at start and closes at exit) and receives that
engine as its first argument, through which it forks and joins
worker-local subtasks with the full supervised join protocol (a join on
a subtask still in the engine's queue runs it on the joining thread).
Results stream back on a shared result queue; a collector thread in the
parent completes the dispatched futures.

Spawn paths — the TJ-SP fork tree every verdict derives from — live in
the struct-of-arrays forest of
:class:`~repro.core.shared_tree.SharedFlatTree` in
``multiprocessing.shared_memory``.  Every process reads the same rows
through int64 loads; segments double in capacity and are attached
lazily via the generation handshake, and ids are striped per process so
``AddChild`` never takes an interprocess lock.  A dispatch therefore
ships only the vertex id: the worker finds its spawn path in the forest.

Join resolution — the local shard and the audit rule
----------------------------------------------------
Each process runs a :class:`ShardVerifier`, and every join resolves on
the shared-memory forest: a TJ-SP verdict depends only on the fork tree
(Thm 3.17), which every process can read.  A join whose joiner was
**forked in this process** is local (the expected >90% case — a task
joins the children it forked).  A join whose joiner's vertex was forked
in *another* process (the dispatched task joining its own subtasks is
the canonical case) is a **cross-process edge**, and its verdict is
also **audited** by the shared verification sidecar (``repro serve``):
every process holds one :class:`~repro.service.client.SessionClient`
session multiplexed under one tenant, announces exactly the vertices
that can appear on cross-process edges (with their authoritative
edge/depth placement), and appends each cross-process verdict to the
same buffered stream as a ``recheck`` record.  The sidecar re-derives it
on its tenant mirror, journals it and counts disagreements; no join
waits for its audit (the client's ``sync`` flow control only keeps a
fast worker within the sidecar's inbox bound).  At exit each worker
makes one ``sync`` round trip: audits the reply does not cover count as
degraded joins, and the sidecar's disagreements reach
``join_stats()["audit_mismatches"]``.

When the sidecar dies mid-run the session degrades permanently and its
remaining audits are never sent, so they count as degraded.  Nothing
blocks and nothing is unsound; the sidecar is an auditor and an
observer, not the source of truth.

Worker death (at-least-once redispatch)
---------------------------------------
A monitor thread watches each worker's own exit (its pidfd, not the
fork server's status pipe, so a dead server is not a dead worker).
When a worker dies —
including ``SIGKILL`` mid-task, which the chaos suite injects — its
in-flight dispatches are re-forked under **fresh vertices** (a new
``AddChild`` under the same parent: a later sibling, so by the
no-widening property every verdict stays sound) and redispatched to the
surviving workers.  Task bodies therefore run *at least once*; bodies
with external side effects should be idempotent.  The shared-memory
rows the dead worker wrote are simply orphaned (the forest only grows),
and because no interprocess locks exist anywhere, a kill can never
strand one.

Start-up: one preloaded fork server
-----------------------------------
Every worker is a fork of one ``multiprocessing`` fork server per parent
process.  The server boots once and preloads exactly what a worker
imports (this module, and the sidecar wire client), so a worker starts
with its code loaded instead of booting an interpreter and importing it.
Each run checks that the server is up, relaunching it with its preload
if it died, and the server is stopped and reaped at interpreter exit.
A worker sees ``os.environ`` as it was when the server launched (with
the package root leading ``PYTHONPATH``); ``sys.path`` and the working
directory still come from the parent at each start.  On a platform with
no fork server, workers are ``spawn``ed fresh interpreters instead.

The API is identical where it can be: ``run`` hosts one root,
``fork``/``join``/``join_batch`` are the verified operations, failures
cross the process boundary as the package's picklable exceptions.  The
one necessary difference: a *dispatched* function must be picklable
(module-level) and receives the hosting engine as its first argument —
closures cannot cross a process boundary.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
from multiprocessing.connection import wait as _mpc_wait
from typing import Any, Callable, Optional, Union

from .._importpath import child_pythonpath
from .context import require_current_task, task_scope
from .future import Future
from .pool import WorkSharingRuntime
from .supervisor import StallWatchdog, SupervisedJoinMixin
from .task import TaskHandle, TaskState
from ..core.shared_tree import SharedFlatTree, SharedTJPolicy, SharedTreeHandle
from ..core.verifier import Verifier
from ..errors import ReproError, RuntimeStateError
from ..obs.metrics import CounterGroup, label_snapshot, merge_snapshots
from ..obs.tracing import current_trace_context, flow_id

__all__ = ["ProcessRuntime", "ShardVerifier"]

#: worker -> parent result-queue message kinds
_R_DONE = "done"
_R_STATS = "stats"

#: how many dispatched tasks a worker completes between stats messages
_STATS_EVERY = 256

#: with telemetry on, a worker also pushes stats when idle this long —
#: the live introspection plane refreshes even between dispatch bursts
_STATS_IDLE_PUSH = 1.0

#: how often the monitor thread pings the parent's sidecar connection
#: (well inside the server's 5 s liveness window)
_CLIENT_PING_EVERY = 1.0

#: how long releasing a dead worker's dispatch queue may take
_DRAIN_S = 2.0

#: what every worker imports, loaded once by the fork server it is forked from
_PRELOAD = ["repro.runtime.procs", "repro.service.client"]

#: the pid that imported this module: in a worker forked from the
#: preloaded server, the server's
_IMPORTED_BY = os.getpid()

_context_lock = threading.Lock()
_context = None


def _worker_context():
    """The multiprocessing context every worker starts from, with its fork
    server running: launched on first use, relaunched if it died.

    The stdlib would relaunch a dead server by itself, but without the
    package on its import path, and its fork server skips a preload that
    fails to import without a word (Python 3.11 also ignores the
    ``sys_path`` it hands the server), so every launch goes through here.
    """
    global _context
    import multiprocessing

    with _context_lock:
        if _context is None:
            if "forkserver" not in multiprocessing.get_all_start_methods():
                _context = multiprocessing.get_context("spawn")
            else:
                from multiprocessing import util

                _context = multiprocessing.get_context("forkserver")
                _context.set_forkserver_preload(_PRELOAD)
                # A negative priority runs after multiprocessing has
                # terminated and joined this process's daemonic children,
                # which hold the server's liveness pipe open.
                util.Finalize(None, _stop_fork_server, exitpriority=-10)
        if _context.get_start_method() == "forkserver":
            from multiprocessing import forkserver

            saved = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = child_pythonpath()
            try:
                forkserver.ensure_running()
            finally:
                if saved is None:
                    del os.environ["PYTHONPATH"]
                else:
                    os.environ["PYTHONPATH"] = saved
        return _context


def _stop_fork_server() -> None:
    """Stop and reap the fork server (Python 3.11 has no public call)."""
    from multiprocessing import forkserver

    try:
        forkserver._forkserver._stop()
    except ChildProcessError:
        pass  # reaped already: it is gone either way


# ----------------------------------------------------------------------
# the per-process verifier shard
# ----------------------------------------------------------------------
_SHARD_FIELDS = ("local_joins", "cross_joins", "degraded_joins", "announced")
#: what join_stats() merges: the shard's counters and the sidecar's verdicts
_JOIN_FIELDS = _SHARD_FIELDS + ("audit_mismatches",)


class ShardVerifier(Verifier):
    """A :class:`Verifier` that counts joins local or cross-process and
    audits the cross-process verdicts on the sidecar.

    Every verdict comes from the plain local verifier path (policy
    verdict, stats, journal, quarantine boundary) on the shared forest —
    sound for both kinds, because the spawn paths of both endpoints are
    locally visible by construction.  A join whose joiner was forked
    elsewhere also hands its verdict to the sidecar session as an audit;
    with no sidecar attached it counts as degraded from the start, and
    so does every audit no ``synced`` reply has covered.

    Vertices that can become cross-process joinees (children forked
    under a remotely-forked parent) are announced to the sidecar with
    their authoritative ``(edge, depth)`` placement as they are created;
    the dispatching runtime announces the dispatched vertices
    themselves.
    """

    def __init__(
        self,
        policy,
        *,
        fail_mode: str = "raise",
        sidecar=None,
        journal=None,
    ) -> None:
        super().__init__(policy, fail_mode=fail_mode, journal=journal)
        self.sidecar = sidecar
        self._owns = policy.tree.owns
        self._procs_events = CounterGroup(_SHARD_FIELDS)

    # -- bookkeeping ----------------------------------------------------
    def is_local(self, vid: object) -> bool:
        """Whether this process forked *vid*: the stripe allocator says."""
        return isinstance(vid, int) and self._owns(vid)

    def procs_stats(self) -> dict:
        stats = self._procs_events.totals()
        client = self.sidecar
        if client is not None:
            stats["degraded_joins"] += client.audits - client.audits_applied
            stats["audit_mismatches"] = client.audit_mismatches
        return stats

    # -- announcements --------------------------------------------------
    def _announce(self, kind: str, vid: int) -> None:
        client = self.sidecar
        if client is None:
            return
        if kind == "init":
            client.init(vid)
        else:
            parent, edge, depth = self.policy.placement(vid)
            client.fork(parent, vid, edge, depth)
        self._procs_events.cell().announced += 1

    def announce_fork(self, vid: int) -> None:
        self._announce("fork", vid)

    def flush_announcements(self) -> None:
        if self.sidecar is not None:
            self.sidecar.flush()

    # -- init/fork: announce the vertices audits can name ---------------
    def on_init(self):
        vertex = super().on_init()
        self._announce("init", vertex)  # the root of the tenant mirror
        self.flush_announcements()
        return vertex

    def on_fork(self, parent):
        vertex = super().on_fork(parent)
        if isinstance(vertex, int) and not self.is_local(parent):
            # A child of a remotely-forked task: the one shape that
            # can appear as the joinee of a cross-process edge.
            self._announce("fork", vertex)
        return vertex

    # -- join: every verdict local, cross-process ones audited ---------
    def check_join(self, joiner, joinee) -> bool:
        ok = super().check_join(joiner, joinee)
        self._account(joiner, (joinee,), (ok,))
        return ok

    def check_joins(self, joiner, joinees) -> list[bool]:
        joinees = list(joinees)
        oks = super().check_joins(joiner, joinees)
        self._account(joiner, joinees, oks)
        return oks

    def _account(self, joiner, joinees, oks) -> None:
        """Count one call's joins local or cross; audit the cross ones."""
        if not isinstance(joiner, int) or any(not isinstance(j, int) for j in joinees):
            return  # quarantined placeholders: the base verifier owns them
        cell = self._procs_events.cell()
        if self._owns(joiner):
            cell.local_joins += len(joinees)
            return
        cell.cross_joins += len(joinees)
        client = self.sidecar
        if client is None:
            cell.degraded_joins += len(joinees)
            return
        self._flow_escalation()
        for joinee, ok in zip(joinees, oks):
            client.audit(joiner, joinee, ok)

    def _flow_escalation(self) -> None:
        """Flow-start for an audit: pairs with the sidecar's
        ``join_check`` flow-finish, drawing the arrow from the joining
        span's track to the sidecar's.  The ambient trace context is the
        same one the client stamps on the audit record."""
        obs = self._obs
        if obs is None or obs.tracer is None:
            return
        tctx = current_trace_context()
        if tctx is not None:
            obs.tracer.flow("s", "join_check", flow_id(tctx))


# ----------------------------------------------------------------------
# the worker process
# ----------------------------------------------------------------------
class _WorkerEngine(WorkSharingRuntime):
    """The private in-worker runtime that hosts dispatched task bodies.

    A thin :class:`~repro.runtime.pool.WorkSharingRuntime`: same worker
    pool, work-first and supervised joins, but driven by the worker's
    :class:`ShardVerifier` and able to host many dispatched tasks
    sequentially (``execute``) instead of exactly one root.  The worker
    opens its pool at start and closes it at exit.
    """

    def __init__(self, verifier: ShardVerifier, **kwargs: Any) -> None:
        super().__init__(
            policy=verifier.policy,
            fallback=False,
            verifier=verifier,
            **kwargs,
        )
        #: vid -> live TaskHandle, for cancel targeting over the wake pipe
        self.dispatched: dict[int, TaskHandle] = {}

    def execute(
        self, vid: int, fn: Callable, args: tuple, kwargs: dict, tctx=None
    ):
        """Run one dispatched task body to completion in this thread.

        Returns ``("ok", value)`` or ``("err", exc)``; never raises.
        The body receives this engine as its first argument — its portal
        to the verified ``fork``/``join``/``join_batch`` API.  *tctx* is
        the dispatching fork's ``(trace_id, span_id)`` trace context:
        with tracing on, this task's ``run`` span parents under it (and
        every span it opens inherits the same trace id).
        """
        task = TaskHandle(vid, code=fn, name=f"dispatched-{vid}")
        task.state = TaskState.RUNNING
        self.dispatched[vid] = task
        obs = self._obs
        handle = None
        if obs is not None and obs.tracer is not None:
            handle = obs.tracer.begin_span("run", parent=tctx)
        try:
            with task_scope(task):
                value = fn(self, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - shipped to the parent
            task.state = TaskState.FAILED
            return ("err", exc)
        else:
            task.state = TaskState.DONE
            return ("ok", value)
        finally:
            if handle is not None:
                obs.tracer.end_span(handle, args={"task": f"dispatched-{vid}"})
            self.dispatched.pop(vid, None)

    def cancel_dispatched(self, vid: int) -> None:
        task = self.dispatched.get(vid)
        if task is not None:
            task.cancel_token.cancel()


def _pickle_safe(obj: object) -> object:
    """*obj* if it pickles, else a :class:`ReproError` describing it."""
    try:
        pickle.dumps(obj)
    except Exception:  # noqa: BLE001 - any pickling failure
        return ReproError(f"unpicklable worker payload: {obj!r}")
    return obj


def _worker_stats(engine: _WorkerEngine, shard: ShardVerifier, done: int) -> dict:
    stats = {
        "tasks_dispatched": done,
        "tasks_started": engine.tasks_started,
        "inline_joins": engine.inline_joins,
    }
    stats.update(shard.procs_stats())
    stats.update(shard.stats.snapshot())
    return stats


def _serialize_blocked(records: list, **labels: str) -> list:
    """Blocked-join records (a waits-for graph snapshot) as queue-portable
    plain dicts: *labels*, then ``joiner``/``joinee``/``age``/``wakeups``."""
    now = time.monotonic()
    return [
        {
            **labels,
            "joiner": record.joiner.name,
            "joinee": record.joinee.name,
            "age": max(0.0, now - record.since),
            "wakeups": record.wakeups,
        }
        for record in records
    ]


def _worker_obs_payload(session, index: int) -> Optional[dict]:
    """One telemetry push: registry snapshot + trace buffer + blocked."""
    if session is None:
        return None
    payload: dict = {
        "metrics": session.snapshot(),
        "blocked": _serialize_blocked(session.blocked_joins()),
    }
    if session.tracer is not None:
        payload["trace"] = session.tracer.export_state(label=f"worker-{index}")
    return payload


def _worker_main(cfg: dict) -> None:
    """Entry point of one worker process.  Module level, and everything
    it needs arrives in *cfg*: the worker is a fork of the preloaded
    fork server, not of the parent, so it shares no other state."""
    from .. import obs as _obs_mod

    index = cfg["index"]
    dispatch_q = cfg["dispatch_q"]
    result_q = cfg["result_q"]
    wake_r = cfg["wake_r"]

    session = None
    tcfg = cfg.get("telemetry")
    if tcfg is not None:
        # A worker starts with telemetry off; re-create the
        # parent's choice here so the shard/engine capture it at
        # construction.  The trace id is inherited, so even spans that
        # never adopt a dispatch context share the run's trace.
        session = _obs_mod.Telemetry(
            tracing=tcfg.get("tracing", True),
            trace_capacity=tcfg.get("trace_capacity", 65536),
            trace_id=tcfg.get("trace_id"),
        )

    with _obs_mod.using(session):
        tree = SharedFlatTree.attach(
            SharedTreeHandle(*cfg["tree_handle"]), region=cfg["region"]
        )
        policy = SharedTJPolicy(tree)

        client = None
        if cfg["sidecar_url"] is not None:
            from ..service.client import SessionClient

            client = SessionClient(
                cfg["sidecar_url"],
                f"{cfg['run_id']}-w{index}",
                tenant=cfg["run_id"],
            )
            client.connect()  # failure leaves it degraded: local fallback

        shard = ShardVerifier(policy, fail_mode=cfg["fail_mode"], sidecar=client)
        engine = _WorkerEngine(shard)
    engine._open()

    stop = threading.Event()

    def control_main() -> None:
        # The wake pipe: out-of-band stop/cancel, never behind a queue
        # of pending dispatches.
        while True:
            try:
                msg = wake_r.recv()
            except (EOFError, OSError):
                stop.set()
                return
            if msg is None or msg[0] == "stop":
                stop.set()
                return
            if msg[0] == "cancel":
                engine.cancel_dispatched(msg[1])

    threading.Thread(target=control_main, daemon=True, name="procs-wake").start()

    def push_stats() -> None:
        result_q.put(
            (
                _R_STATS,
                index,
                _worker_stats(engine, shard, completed),
                _worker_obs_payload(session, index),
            )
        )

    completed = 0
    last_push = time.monotonic()
    try:
        while True:
            try:
                item = dispatch_q.get(timeout=0.2)
            except Exception:  # noqa: BLE001 - Empty, or torn queue at exit
                if stop.is_set():
                    break  # told to stop, and no sentinel is coming
                if (
                    session is not None
                    and time.monotonic() - last_push >= _STATS_IDLE_PUSH
                ):
                    push_stats()
                    last_push = time.monotonic()
                continue
            if item is None:
                break
            if stop.is_set():
                # The run is over: discard what was never started, but
                # read on to the sentinel, or a backlog larger than the
                # pipe leaves the parent's feeder thread blocked for good.
                continue
            vid, payload, tctx = item
            try:
                fn, args, kwargs = pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001
                result_q.put((_R_DONE, vid, "err", ReproError(f"undispatchable task: {exc!r}")))
                continue
            kind, value = engine.execute(vid, fn, args, kwargs, tctx)
            if kind == "ok":
                safe = _pickle_safe(value)
                if safe is not value:
                    result_q.put((_R_DONE, vid, "err", safe))
                else:
                    result_q.put((_R_DONE, vid, "ok", value))
            else:
                result_q.put((_R_DONE, vid, "err", _pickle_safe(value)))
            completed += 1
            if completed % _STATS_EVERY == 0:
                push_stats()
                last_push = time.monotonic()
    finally:
        engine._close()  # every forked subtask ends before the audits settle
        if client is not None and client.audits:
            client.sync()  # settles the audits before the last stats push
        try:
            push_stats()
        except Exception:  # noqa: BLE001 - parent may already be gone
            pass
        if client is not None:
            client.close()
        tree.close()


# ----------------------------------------------------------------------
# parent-side plumbing
# ----------------------------------------------------------------------
def _release_dead(queue) -> None:
    """Close a dead worker's dispatch queue and let its feeder thread exit.

    The feeder may be blocked on a pipe the worker stopped reading.  The
    pipe is read raw, as bytes, and not through ``get``: the worker may
    have died holding the queue's reader lock, or halfway through a
    message.  The feeder holds the write lock while it sends, so an empty
    pipe, an empty buffer and a free write lock mean it is idle; only
    then does the close hand it the sentinel it exits on, closing the
    pipe, so no read races that close.  All of it is bounded by
    :data:`_DRAIN_S`; a feeder still stuck by then is left behind."""
    queue.cancel_join_thread()  # the wait below is bounded instead
    reader, deadline = queue._reader, time.monotonic() + _DRAIN_S
    while time.monotonic() < deadline:
        if reader.poll(0.01):
            os.read(reader.fileno(), 1 << 16)
        elif not queue._buffer and queue._wlock.acquire(False):
            queue._wlock.release()
            queue.close()
            if queue._thread is not None:
                queue._thread.join(max(0.0, deadline - time.monotonic()))
            return
    queue.close()


class _CancelRelay:
    """A cancel-token waker that forwards the request over a wake pipe."""

    __slots__ = ("runtime", "vid")

    def __init__(self, runtime: "ProcessRuntime", vid: int) -> None:
        self.runtime = runtime
        self.vid = vid

    def set(self) -> None:
        self.runtime._relay_cancel(self.vid)


class _Inflight:
    __slots__ = ("future", "worker", "payload", "parent_vid", "attempts")

    def __init__(self, future, worker, payload, parent_vid, attempts=0):
        self.future = future
        self.worker = worker
        self.payload = payload
        self.parent_vid = parent_vid
        self.attempts = attempts


class _WorkerHandle:
    __slots__ = (
        "index", "proc", "pid", "pidfd", "sentinel", "dispatch_q", "wake_w",
        "alive", "stats",
    )

    def __init__(self, index, proc, dispatch_q, wake_w):
        self.index = index
        self.proc = proc
        self.pid = proc.pid  # still readable once the handle is closed
        # Watch the worker's own exit.  Under the fork server
        # proc.sentinel is the server's status pipe for this child, which
        # also reads ready (exit code 255) when the server dies while
        # the worker lives on; it stays the fallback where pidfd is
        # missing, or the worker is already gone.
        try:
            self.pidfd: Optional[int] = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            self.pidfd = None
        self.sentinel = proc.sentinel if self.pidfd is None else self.pidfd
        self.dispatch_q = dispatch_q
        self.wake_w = wake_w
        self.alive = True
        self.stats: dict = {}

    def exited(self, timeout: float = 0.0) -> bool:
        """Has the worker process exited (waiting up to *timeout* s)?"""
        return bool(_mpc_wait([self.sentinel], timeout))


class ProcessRuntime(SupervisedJoinMixin):
    """Verified fork/join across a pool of worker processes.

    Parameters
    ----------
    policy:
        Only ``"TJ-SP"`` (the default): cross-process soundness leans on
        verdicts that are fixed at fork time and derivable from spawn
        paths alone, and every process verifies against the one
        shared-memory forest.
    workers:
        Worker process count (the parent is an additional process that
        hosts the root and the dispatch plumbing).
    spawn_paths:
        Only ``"shm"`` (the default), the shared-memory forest.
    sidecar:
        ``None`` — no sidecar: cross-process edges resolve against the
        local authority from the start (counted as degraded);
        ``"auto"`` — spawn a private ``repro serve`` on an ephemeral
        port and point every process at it; a ``remote://host:port``
        URL — use an existing sidecar.
    redispatch:
        When True (default) a dead worker's in-flight tasks are re-run
        on surviving workers under fresh vertices (at-least-once);
        when False their futures fail with :class:`TaskFailedError`.
    introspect:
        ``None`` (default) — no introspection endpoint; an integer port
        (0 = ephemeral) — serve the live fleet snapshot over the wire
        protocol so ``repro top --live`` can attach while the run is in
        flight (see :mod:`repro.obs.live`).
    stripe, seg0:
        Shared-tree allocation geometry, for tests.

    ``fail_mode``, ``default_join_timeout``, ``watchdog``,
    ``on_unjoined_failure`` behave as on :class:`TaskRuntime`.  There is
    no Armus fallback across processes: TJ-SP is pure avoidance here,
    and a rejected join faults immediately.
    """

    def __init__(
        self,
        policy: str = "TJ-SP",
        *,
        workers: int = 4,
        spawn_paths: str = "shm",
        sidecar: Union[None, str] = None,
        redispatch: bool = True,
        fail_mode: str = "raise",
        default_join_timeout: Optional[float] = None,
        watchdog: Union[bool, float, StallWatchdog] = True,
        on_unjoined_failure: str = "warn",
        introspect: Optional[int] = None,
        stripe: int = 1024,
        seg0: int = 1 << 14,
    ) -> None:
        if isinstance(policy, str):
            policy_name = policy
        else:
            policy_name = getattr(policy, "name", str(policy))
        if policy_name != "TJ-SP":
            raise ValueError(
                "ProcessRuntime requires the 'TJ-SP' policy (verdicts fixed "
                f"at fork time, on the shared-memory forest); got {policy_name!r}"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if spawn_paths != "shm":
            raise ValueError(f"spawn_paths must be 'shm'; got {spawn_paths!r}")
        self.workers_requested = workers
        self.spawn_paths = spawn_paths
        self.redispatch = redispatch
        self._sidecar_spec = sidecar
        self._fail_mode = fail_mode
        self._stripe = stripe
        self._seg0 = seg0
        self.run_id = f"procs-{secrets.token_hex(4)}"
        self._nprocs = workers + 1  # workers plus the parent (region 0)

        self._tree: Optional[SharedFlatTree] = None
        self._sidecar_proc = None
        self._client = None
        self._verifier: Optional[ShardVerifier] = None  # built by _open
        self._hybrid = None  # no Armus across processes
        self._journal = None
        self._owns_journal = self._owns_verifier = False

        self._result_q = None  # opened by _open, released by _close
        self._workers: list[_WorkerHandle] = []
        self._inflight: dict[int, _Inflight] = {}
        self._rr = 0  # round-robin dispatch cursor
        self._stopping = threading.Event()
        self._collector: Optional[threading.Thread] = None
        self._monitor: Optional[threading.Thread] = None

        # merged telemetry (parent's view; worker cells merge on arrival)
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.worker_deaths = 0
        self.tasks_redispatched = 0
        self.orphan_results = 0
        self._worker_stats: dict[int, dict] = {}

        # fleet telemetry (tentpole PR 10): latest labelled registry
        # snapshot and blocked-join list per live worker, plus the
        # retired accumulator dead workers fold into — the process-level
        # mirror of the sharded counters' dead-cell fold, so merged
        # totals stay exact across worker churn.
        self._worker_metrics: dict[int, dict] = {}
        self._worker_blocked: dict[int, list] = {}
        self._fleet_retired: Optional[dict] = None
        self._sidecar_stats: Optional[dict] = None
        self._introspect_port = introspect
        self._introspect_server = None

        self._init_supervision(
            default_join_timeout=default_join_timeout,
            watchdog=watchdog,
            on_unjoined_failure=on_unjoined_failure,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def policy(self):
        return self._verifier.policy if self._verifier is not None else None

    @property
    def sidecar_url(self) -> Optional[str]:
        if self._client is not None:
            return self._client.url
        return None

    def join_stats(self) -> dict:
        """Merged local/cross/degraded join counts and audit mismatches
        across all processes."""
        out = {f: 0 for f in _JOIN_FIELDS}
        sources = [self._verifier.procs_stats()] if self._verifier else []
        sources += list(self._worker_stats.values())
        for stats in sources:
            for field in _JOIN_FIELDS:
                out[field] += stats.get(field, 0)
        checked = out["local_joins"] + out["cross_joins"]
        out["escalation_ratio"] = out["cross_joins"] / checked if checked else 0.0
        return out

    def _metrics_snapshot(self) -> dict:
        out = super()._metrics_snapshot()
        joins = self.join_stats()
        out.update(
            procs_workers=len([w for w in self._workers if w.alive]),
            procs_tasks_total=self.tasks_completed
            + sum(s.get("tasks_started", 0) for s in self._worker_stats.values()),
            procs_tasks_dispatched=self.tasks_dispatched,
            procs_cross_joins_total=joins["cross_joins"],
            procs_local_joins_total=joins["local_joins"],
            procs_degraded_joins_total=joins["degraded_joins"],
            procs_escalation_ratio=joins["escalation_ratio"],
            procs_worker_deaths=self.worker_deaths,
            procs_tasks_redispatched=self.tasks_redispatched,
        )
        return out

    # ------------------------------------------------------------------
    # fleet telemetry: merged metrics, blocked joins, live introspection
    # ------------------------------------------------------------------
    def fleet_metrics(self) -> dict:
        """One merged registry snapshot for the whole fleet.

        Parent series carry ``process="parent"``, worker series
        ``worker="<index>"``.  Workers that died mid-run stay in the
        merge through the retired accumulator their last snapshot was
        folded into (the process-level analogue of the sharded
        counters' dead-cell fold), so counter totals are exact under
        churn.  Empty when telemetry is disabled.
        """
        parts: list[dict] = []
        obs = self._obs
        if obs is not None:
            parts.append(label_snapshot(obs.snapshot(), process="parent"))
        with self._lock:
            live = [self._worker_metrics[i] for i in sorted(self._worker_metrics)]
            retired = self._fleet_retired
        parts.extend(live)
        if retired is not None:
            parts.append(retired)
        return merge_snapshots(parts)

    def fleet_blocked_joins(self) -> list:
        """Currently blocked joins across every process, as plain dicts
        (``process``/``joiner``/``joinee``/``age``/``wakeups``).

        Worker entries are as-of that worker's latest stats push (at
        most :data:`_STATS_IDLE_PUSH` seconds stale); parent entries are
        live.
        """
        obs = self._obs
        out = _serialize_blocked(obs.blocked_joins(), process="parent") if obs is not None else []
        with self._lock:
            blocked = {i: list(v) for i, v in self._worker_blocked.items()}
        for index in sorted(blocked):
            for rec in blocked[index]:
                entry = dict(rec)
                entry["process"] = f"worker-{index}"
                out.append(entry)
        return out

    def _introspection_snapshot(self) -> dict:
        """The stats payload the introspection plane serves to
        ``repro top --live`` (wire ``stats`` → ``stats_reply``)."""
        with self._lock:
            workers = [
                {"index": w.index, "alive": w.alive, "pid": w.pid}
                for w in self._workers
            ]
        return {
            "run_id": self.run_id,
            "kind": "procs",
            "workers": workers,
            "join_stats": self.join_stats(),
            "counters": self._metrics_snapshot(),
            "blocked": self.fleet_blocked_joins(),
            "metrics": self.fleet_metrics(),
            "sidecar": self.sidecar_url,
        }

    def _absorb_worker_obs(self, index: int, obs_state: dict) -> None:
        """Fold one worker telemetry push into the parent's fleet view."""
        metrics = obs_state.get("metrics")
        blocked = obs_state.get("blocked")
        with self._lock:
            if metrics is not None:
                self._worker_metrics[index] = label_snapshot(
                    metrics, worker=str(index)
                )
            self._worker_blocked[index] = blocked or []
        trace = obs_state.get("trace")
        obs = self._obs
        if trace is not None and obs is not None and obs.tracer is not None:
            obs.tracer.absorb_remote(trace)

    @property
    def introspect_url(self) -> Optional[str]:
        """The live introspection endpoint, if one was requested."""
        if self._introspect_server is None:
            return None
        return self._introspect_server.url

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start_sidecar(self) -> Optional[str]:
        spec = self._sidecar_spec
        if spec is None:
            return None
        if spec == "auto":
            from ..service.proc import SidecarProcess

            obs = self._obs
            kwargs: dict = {}
            if obs is not None:
                # A telemetry-enabled run wants the private sidecar in
                # the same distributed trace: its join_check spans ship
                # home via the stats reply at shutdown.
                kwargs["obs"] = True
                if obs.tracer is not None:
                    kwargs["trace_id"] = obs.tracer.trace_id
            self._sidecar_proc = SidecarProcess(port=0, **kwargs)
            return self._sidecar_proc.url
        return spec

    def _open(self) -> None:
        """Start the sidecar, the shared forest and the workers; the root
        (run by :meth:`SupervisedJoinMixin.run` in the calling thread)
        dispatches everything it forks to them."""
        ctx = _worker_context()  # a fork server launched here boots meanwhile
        url = self._start_sidecar()
        if url is not None:
            from ..service.client import SessionClient

            self._client = SessionClient(url, f"{self.run_id}-p", tenant=self.run_id)
            self._client.connect()
        self._tree = SharedFlatTree.create(
            nprocs=self._nprocs, stripe=self._stripe, seg0=self._seg0
        )
        tree_handle = tuple(self._tree.handle())
        self._verifier = ShardVerifier(
            SharedTJPolicy(self._tree),
            fail_mode=self._fail_mode,
            sidecar=self._client,
        )
        obs = self._obs
        telemetry_cfg = None
        if obs is not None:
            # Workers re-create the parent's telemetry choice at startup
            # and inherit the run's trace id, so every process's spans
            # land in one distributed trace.
            telemetry_cfg = {
                "tracing": obs.tracer is not None,
                "trace_capacity": (
                    obs.tracer.capacity if obs.tracer is not None else 65536
                ),
                "trace_id": (
                    obs.tracer.trace_id if obs.tracer is not None else None
                ),
            }
        self._result_q = ctx.Queue()
        for i in range(self.workers_requested):
            dispatch_q = ctx.Queue()
            wake_r, wake_w = ctx.Pipe(duplex=False)
            cfg = {
                "index": i,
                "region": i + 1,
                "tree_handle": tree_handle,
                "sidecar_url": url,
                "run_id": self.run_id,
                "fail_mode": self._fail_mode,
                "dispatch_q": dispatch_q,
                "result_q": self._result_q,
                "wake_r": wake_r,
                "telemetry": telemetry_cfg,
            }
            proc = ctx.Process(
                target=_worker_main,
                args=(cfg,),
                name=f"repro-procs-{i}",
                daemon=True,
            )
            proc.start()
            wake_r.close()
            self._workers.append(_WorkerHandle(i, proc, dispatch_q, wake_w))
        self._collector = threading.Thread(
            target=self._collector_main, daemon=True, name="procs-collect"
        )
        self._collector.start()
        self._monitor = threading.Thread(
            target=self._monitor_main, daemon=True, name="procs-monitor"
        )
        self._monitor.start()
        if self._introspect_port is not None:
            from ..obs.live import IntrospectionServer

            self._introspect_server = IntrospectionServer(
                self._introspection_snapshot, port=self._introspect_port
            )
            self._introspect_server.start()

    def _close(self) -> None:
        """Stop the workers, drain their results, then the sidecar, and
        release every OS resource the run held."""
        self._stopping.set()
        for w in self._workers:
            if w.alive:
                try:
                    w.wake_w.send(("stop",))
                except (OSError, BrokenPipeError):
                    pass
                try:
                    w.dispatch_q.put(None)
                except Exception:  # noqa: BLE001 - queue may be torn
                    pass
        deadline = time.monotonic() + 10.0
        for w in self._workers:
            if not w.exited(max(0.1, deadline - time.monotonic())):
                w.proc.terminate()
                w.exited(5.0)
            # the exit status, once the fork server has reaped the worker
            w.proc.join(timeout=1.0)
        # One sentinel value unblocks the collector; it drains anything
        # (late results, final stats) queued before it.
        if self._result_q is not None:
            self._result_q.put(None)
        if self._collector is not None:
            self._collector.join(timeout=10.0)
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        if self._introspect_server is not None:
            self._introspect_server.stop()
        obs = self._obs
        if obs is not None and self._client is not None:
            # Last stats pull before hanging up: the sidecar's trace
            # buffer (its join_check track) folds into the merged trace.
            stats = None
            if not self._client.degraded:
                try:
                    stats = self._client.stats()
                except Exception:  # noqa: BLE001 - a dying sidecar is fine
                    stats = None
            if stats is None and self.sidecar_url is not None:
                # The long-lived connection may have died (degraded, or
                # reaped by the server's liveness sweeper); one fresh
                # dial for the final pull costs a handshake and saves
                # the sidecar's whole track.
                from ..service.client import SessionClient

                try:
                    fresh = SessionClient(
                        self.sidecar_url,
                        f"{self.run_id}-stats",
                        tenant=self.run_id,
                    )
                    if fresh.connect():
                        stats = fresh.stats()
                    fresh.close()
                except Exception:  # noqa: BLE001 - a dying sidecar is fine
                    stats = None
            if stats is not None:
                self._sidecar_stats = stats
                trace = stats.get("trace")
                if trace is not None and obs.tracer is not None:
                    obs.tracer.absorb_remote(trace)
        if self._client is not None:
            self._client.close()
        if self._sidecar_proc is not None:
            self._sidecar_proc.stop()
        if self._tree is not None:
            self._tree.close()
        self._release_workers()

    def _release_workers(self) -> None:
        """Close the queues, wake pipes and process handles now, so a
        finished runtime that stays referenced holds no file descriptor
        and no named semaphore (dropping a queue unlinks its three).

        A worker that did not exit cleanly may leave more dispatches
        than its pipe takes, with the queue's feeder thread blocked on
        the full pipe: :func:`_release_dead` reads it dry first."""
        queues = [(self._result_q, True)] + [
            (w.dispatch_q, w.proc.exitcode == 0) for w in self._workers
        ]
        for queue, clean in queues:
            if queue is None:
                continue
            if clean:
                queue.close()
                queue.join_thread()
            else:
                _release_dead(queue)
        self._result_q = None
        for w in self._workers:
            w.dispatch_q = None
            w.wake_w.close()
            if w.pidfd is not None:
                os.close(w.pidfd)
                w.pidfd = None
            try:
                w.proc.close()
            except ValueError:
                pass  # survived terminate(): its handle goes with it

    # ------------------------------------------------------------------
    # fork: dispatch to a worker
    # ------------------------------------------------------------------
    def fork(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Dispatch *fn* to a worker process; return its parent-side Future.

        *fn* must be picklable (module level) and receives the worker's
        engine — a full verified :class:`WorkSharingRuntime` — as its first
        argument: ``fn(rt, *args, **kwargs)``.
        """
        parent = require_current_task()
        parent.cancel_token.raise_if_cancelled(parent)
        try:
            payload = pickle.dumps((fn, args, kwargs))
        except Exception as exc:
            raise RuntimeStateError(
                f"dispatched task {getattr(fn, '__name__', fn)!r} must be "
                f"picklable: {exc}"
            ) from exc
        vertex = self._verifier.on_fork(parent.vertex)
        self._verifier.announce_fork(vertex)
        self._verifier.flush_announcements()
        task = TaskHandle(vertex, code=fn, parent_uid=parent.uid)
        future = Future(self, task)
        task.state = TaskState.RUNNING
        with self._lock:
            self.tasks_dispatched += 1
            worker = self._pick_worker_locked()
            if worker is None:
                raise RuntimeStateError("no live worker processes")
            self._inflight[vertex] = _Inflight(
                future, worker.index, payload, parent.vertex
            )
        task.cancel_token._add_waker(_CancelRelay(self, vertex))
        obs = self._obs
        tctx = None
        if obs is not None and obs.tracer is not None:
            tctx = current_trace_context()
            if tctx is not None:
                obs.tracer.instant(
                    "fork", cat="dispatch",
                    args={"child": vertex, "worker": worker.index},
                )
                obs.tracer.flow("s", "dispatch", flow_id(tctx))
        worker.dispatch_q.put((vertex, payload, tctx))
        return future

    def _pick_worker_locked(self) -> Optional[_WorkerHandle]:
        live = [w for w in self._workers if w.alive]
        if not live:
            return None
        worker = live[self._rr % len(live)]
        self._rr += 1
        return worker

    def _relay_cancel(self, vid: int) -> None:
        with self._lock:
            entry = self._inflight.get(vid)
            worker = self._workers[entry.worker] if entry is not None else None
        if worker is not None and worker.alive:
            try:
                worker.wake_w.send(("cancel", vid))
            except (OSError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # result collection and worker supervision
    # ------------------------------------------------------------------
    def _collector_main(self) -> None:
        result_q = self._result_q
        while True:
            try:
                msg = result_q.get(timeout=1.0)
            except Exception:  # noqa: BLE001 - Empty or torn queue
                if self._stopping.is_set() and all(
                    w.exited() for w in self._workers
                ):
                    return
                continue
            if msg is None:
                # shutdown sentinel: drain whatever is already queued
                while True:
                    try:
                        msg = result_q.get_nowait()
                    except Exception:  # noqa: BLE001
                        return
                    if msg is not None:
                        self._handle_result(msg)
                return
            self._handle_result(msg)

    def _handle_result(self, msg) -> None:
        try:
            kind = msg[0]
            if kind == _R_STATS:
                _, index, stats, obs_state = msg
                self._worker_stats[index] = stats
                if obs_state is not None:
                    self._absorb_worker_obs(index, obs_state)
                return
            _, vid, status, value = msg
        except (TypeError, ValueError, IndexError):
            self.orphan_results += 1
            return
        with self._lock:
            entry = self._inflight.pop(vid, None)
        if entry is None:
            self.orphan_results += 1  # redispatch raced a late result
            return
        entry.future.task.state = (
            TaskState.DONE if status == "ok" else TaskState.FAILED
        )
        self.tasks_completed += 1
        if status == "ok":
            entry.future._set_result(value)
        else:
            entry.future._set_exception(value)

    def _monitor_main(self) -> None:
        last_ping = time.monotonic()
        while not self._stopping.is_set():
            sentinels = {w.sentinel: w for w in self._workers if w.alive}
            if not sentinels:
                return
            ready = _mpc_wait(list(sentinels), timeout=0.2)
            for sentinel in ready:
                self._on_worker_death(sentinels[sentinel])
            # Keep the parent's mostly-idle sidecar connection alive so
            # the server's liveness sweeper doesn't reap it mid-run and
            # the shutdown stats pull finds the stream still open.
            now = time.monotonic()
            if self._client is not None and now - last_ping >= _CLIENT_PING_EVERY:
                last_ping = now
                self._client.ping()

    def _on_worker_death(self, worker: _WorkerHandle) -> None:
        with self._lock:
            if not worker.alive:
                return
            worker.alive = False
            if self._stopping.is_set():
                # Normal teardown: the exit is expected, nothing is stranded.
                return
            self.worker_deaths += 1
            # The dead worker's last labelled snapshot folds into the
            # retired accumulator: its counts survive in merged fleet
            # totals even though the live cell is gone (same rule as
            # the sharded counters' dead-cell fold, one level up).
            dead = self._worker_metrics.pop(worker.index, None)
            if dead is not None:
                self._fleet_retired = (
                    dead
                    if self._fleet_retired is None
                    else merge_snapshots([self._fleet_retired, dead])
                )
            self._worker_blocked.pop(worker.index, None)
            stranded = [
                (vid, entry)
                for vid, entry in self._inflight.items()
                if entry.worker == worker.index
            ]
            for vid, _ in stranded:
                del self._inflight[vid]
        for vid, entry in stranded:
            self._recover_task(vid, entry)

    def _recover_task(self, vid: int, entry: _Inflight) -> None:
        future = entry.future
        if future.done():
            return
        if not self.redispatch or entry.attempts + 1 >= 3:
            future.task.state = TaskState.FAILED
            future._set_exception(
                ReproError(f"worker process died while running task {vid}")
            )
            return
        # A fresh vertex under the original parent: the retry is a later
        # sibling, so every existing verdict stays sound (no-widening).
        new_vid = self._verifier.on_fork(entry.parent_vid)
        self._verifier.announce_fork(new_vid)
        self._verifier.flush_announcements()
        future.task.vertex = new_vid
        with self._lock:
            worker = self._pick_worker_locked()
            if worker is None:
                future.task.state = TaskState.FAILED
                future._set_exception(
                    ReproError("no live worker processes to redispatch to")
                )
                return
            self.tasks_redispatched += 1
            self._inflight[new_vid] = _Inflight(
                future, worker.index, entry.payload, entry.parent_vid,
                attempts=entry.attempts + 1,
            )
        # Redispatch carries no trace context: the original dispatch span
        # may be long gone, so the retry's run span roots its own tree.
        worker.dispatch_q.put((new_vid, entry.payload, None))

    # run / join / join_batch come from SupervisedJoinMixin, driving the
    # parent's ShardVerifier as the in-process runtimes drive their own.
