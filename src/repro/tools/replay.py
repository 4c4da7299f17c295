"""Execute a formal trace as a live program (the inverse of the recorder).

The recorder turns executions into traces; this module turns traces back
into executions: each task of the trace becomes a cooperative-runtime
task that performs its prescribed forks and joins in its own program
order.  Global interleaving is left to the scheduler — which is faithful,
because both policies are insensitive to it: the TJ order depends only on
per-parent fork order, and KJ knowledge flows only along each task's own
fork/join sequence.  (A join in a live execution also transfers the
joinee's *final* knowledge, so online KJ knowledge is always a superset
of the formal at-position knowledge; tests rely on exactly that
direction.)

This closes the loop for end-to-end property tests: a random TJ-valid
trace, replayed on the real runtime under any TJ verifier, must complete
with zero false positives; a deadlocking trace must be refused at
runtime rather than hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.policy import JoinPolicy, make_policy
from ..errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    JoinTimeoutError,
    PolicyViolationError,
    TaskFailedError,
)
from ..formal.actions import Action, Fork, Init, Join, Task
from ..runtime.cooperative import CooperativeRuntime
from ..service.mirror import MirroredSpawnPaths

__all__ = [
    "JournalReplay",
    "ReplayOutcome",
    "replay_journal",
    "replay_on_runtime",
    "replay_on_threaded",
]


class ReplayOutcome:
    """What happened when a trace ran for real."""

    def __init__(self) -> None:
        self.completed_joins: list[tuple[Task, Task]] = []
        self.refused_joins: list[tuple[Task, Task, str]] = []
        self.runtime: Optional[CooperativeRuntime] = None

    @property
    def clean(self) -> bool:
        return not self.refused_joins


def replay_on_runtime(
    trace: list[Action],
    policy: Union[None, str, JoinPolicy] = "TJ-SP",
    *,
    fallback: bool = True,
) -> ReplayOutcome:
    """Run *trace* on a fresh :class:`CooperativeRuntime`.

    Each trace task is one generator task performing its actions in
    program order; a join spins (cooperatively) until the joinee's future
    exists, then joins it through the full verification pipeline.
    Refused joins (policy faults without a fallback, or avoided
    deadlocks) are recorded and skipped, so a replay under an active
    policy always terminates and reports everything the verifier did.
    """
    rt = CooperativeRuntime(policy, fallback=fallback)
    outcome = ReplayOutcome()
    outcome.runtime = rt

    if not trace or not isinstance(trace[0], Init):
        raise ValueError("trace must start with init")

    my_actions: dict[Task, list[Action]] = {trace[0].task: []}
    for action in trace[1:]:
        if isinstance(action, Fork):
            my_actions.setdefault(action.parent, []).append(action)
            my_actions.setdefault(action.child, [])
        elif isinstance(action, Join):
            my_actions.setdefault(action.waiter, []).append(action)

    futures: dict[Task, object] = {}

    def body(name: Task):
        for action in my_actions[name]:
            if isinstance(action, Fork):
                futures[action.child] = rt.fork(body, action.child)
                continue
            assert isinstance(action, Join)
            if action.joinee == trace[0].task:
                # the root has no future; no policy ever permits joining
                # it anyway — record the refusal and move on
                outcome.refused_joins.append(
                    (action.waiter, action.joinee, "JoinOnRoot")
                )
                continue
            while action.joinee not in futures:
                yield None  # the forking task has not issued it yet
            try:
                yield futures[action.joinee]
            except (PolicyViolationError, DeadlockAvoidedError) as exc:
                outcome.refused_joins.append(
                    (action.waiter, action.joinee, type(exc).__name__)
                )
            except TaskFailedError:  # pragma: no cover - tasks never fail
                raise
            else:
                outcome.completed_joins.append((action.waiter, action.joinee))
        return name

    rt.run(body, trace[0].task)
    return outcome


def _await_quiescence(futures: dict) -> None:
    """Wait (uncheckedly) until every forked task has terminated.

    Unlike the cooperative scheduler, the blocking runtime returns when
    the *root* returns; tasks nobody joins may still be finishing their
    trailing actions — and forking more.  Iterate until the future set
    is stable and fully terminated.  Waits in short timed slices, never
    a bare event wait, so Ctrl-C interrupts a replay gone wrong.
    """
    while True:
        snapshot = list(futures.values())
        for fut in snapshot:
            while not fut._wait(0.05):
                pass
        if len(futures) == len(snapshot):
            return


def replay_on_threaded(
    trace: list[Action],
    policy: Union[None, str, JoinPolicy] = "TJ-SP",
    *,
    fallback: bool = True,
    runtime: str = "threaded",
    default_join_timeout: Optional[float] = None,
    watchdog: Union[bool, float] = True,
    fail_mode: str = "raise",
    journal: Optional[str] = None,
    verifier: Union[None, str, object] = None,
) -> ReplayOutcome:
    """Run *trace* on a fresh blocking runtime (``"threaded"`` —
    thread-per-task :class:`~repro.runtime.threaded.TaskRuntime`, the
    default — or ``"pool"`` —
    :class:`~repro.runtime.pool.WorkSharingRuntime`).

    Same per-task program-order semantics as :func:`replay_on_runtime`,
    with real threads and real blocking — the differential-testing
    counterpart: the set of policy verdicts must agree with the
    cooperative replay up to scheduling (TJ exactly; KJ within the
    at-position/final-knowledge envelope).  Joins refused by the
    verifier are recorded and skipped — as are joins terminated by the
    supervision layer (``JoinTimeoutError``, a watchdog
    ``DeadlockDetectedError``), so replaying a deadlocking trace with
    verification disabled terminates with the stalls on record instead
    of hanging the process.
    """
    import threading

    from ..runtime.pool import WorkSharingRuntime
    from ..runtime.threaded import TaskRuntime

    if runtime == "threaded":
        rt = TaskRuntime(
            policy,
            fallback=fallback,
            default_join_timeout=default_join_timeout,
            watchdog=watchdog,
            fail_mode=fail_mode,
            journal=journal,
            verifier=verifier,
        )
    elif runtime == "pool":
        rt = WorkSharingRuntime(
            policy,
            fallback=fallback,
            default_join_timeout=default_join_timeout,
            watchdog=watchdog,
            fail_mode=fail_mode,
            journal=journal,
            verifier=verifier,
        )
    else:
        raise ValueError(f"unknown runtime {runtime!r}; use 'threaded' or 'pool'")
    outcome = ReplayOutcome()
    outcome.runtime = rt  # type: ignore[assignment]

    if not trace or not isinstance(trace[0], Init):
        raise ValueError("trace must start with init")

    my_actions: dict[Task, list[Action]] = {trace[0].task: []}
    for action in trace[1:]:
        if isinstance(action, Fork):
            my_actions.setdefault(action.parent, []).append(action)
            my_actions.setdefault(action.child, [])
        elif isinstance(action, Join):
            my_actions.setdefault(action.waiter, []).append(action)

    futures: dict[Task, object] = {}
    issued: dict[Task, threading.Event] = {
        t: threading.Event() for t in my_actions
    }
    lock = threading.Lock()

    def body(name: Task):
        for action in my_actions[name]:
            if isinstance(action, Fork):
                fut = rt.fork(body, action.child)
                futures[action.child] = fut
                issued[action.child].set()
                continue
            assert isinstance(action, Join)
            if action.joinee == trace[0].task:
                with lock:
                    outcome.refused_joins.append(
                        (action.waiter, action.joinee, "JoinOnRoot")
                    )
                continue
            while not issued[action.joinee].wait(0.05):
                pass
            try:
                futures[action.joinee].join()
            except (
                PolicyViolationError,
                DeadlockAvoidedError,
                DeadlockDetectedError,
                JoinTimeoutError,
            ) as exc:
                with lock:
                    outcome.refused_joins.append(
                        (action.waiter, action.joinee, type(exc).__name__)
                    )
            except TaskFailedError as exc:
                # A joinee terminated by the supervision layer (watchdog
                # diagnosis, timeout, cancellation) surfaces here; record
                # the underlying refusal instead of crashing the replay.
                with lock:
                    outcome.refused_joins.append(
                        (action.waiter, action.joinee, type(exc.__cause__ or exc).__name__)
                    )
            else:
                with lock:
                    outcome.completed_joins.append((action.waiter, action.joinee))
        return name

    rt.run(body, trace[0].task)
    _await_quiescence(futures)
    return outcome


# ----------------------------------------------------------------------
# journal replay: the crash post-mortem
# ----------------------------------------------------------------------
@dataclass
class JournalReplay:
    """Verifier state reconstructed from a (possibly crash-torn) journal.

    The load-bearing field is :attr:`blocked_at_death`: every edge whose
    *last* durable record is a ``block`` with no matching ``unblock`` —
    i.e. the joins the process was sleeping on at the moment it died.
    For a run that exited cleanly the set is empty.

    Deliberately, an edge is **never** dropped from the set because its
    joinee has a ``complete`` (or ``join``) record earlier in the file.
    The live watchdog skips a cycle whose joinee already completed — a
    *transient*, about to resolve — but a post-mortem has no "about to":
    if the final durable record leaves the edge blocked, the process
    died in that wait, however briefly it had left to sleep, and hiding
    it would make the report (and the predictor consuming it) lie.
    """

    path: str
    #: the ``start`` record (policy / runtime / fail_mode), if durable
    header: Optional[dict]
    #: the final record was cut mid-write (the classic ``kill -9`` tail)
    torn_tail: bool
    #: complete records recovered
    records: int
    #: journal task names, in fork order
    tasks: list[str] = field(default_factory=list)
    forks: int = 0
    #: permission checks that answered "denied"
    denied: list[tuple[str, str]] = field(default_factory=list)
    #: joins refused because they would have closed a cycle
    avoided: list[tuple[str, str]] = field(default_factory=list)
    #: (waiter, joinee) edges blocked when the journal ends
    blocked_at_death: list[tuple[str, str]] = field(default_factory=list)
    #: tasks with a durable ``complete`` record, in completion order
    completed: list[str] = field(default_factory=list)
    #: the quarantine record, when the policy was quarantined mid-run
    quarantine: Optional[dict] = None
    #: retry records (old task, reborn task, attempt, error)
    retries: list[dict] = field(default_factory=list)
    #: stable-policy verdicts re-derived during replay
    rechecked: int = 0
    #: (waiter, joinee, journalled, rederived) disagreements — must be empty
    recheck_mismatches: list[tuple[str, str, bool, bool]] = field(default_factory=list)

    @property
    def died_blocked(self) -> bool:
        return bool(self.blocked_at_death)

    def report(self) -> str:
        """A human-readable post-mortem."""
        lines = [f"journal post-mortem: {self.path}"]
        if self.header is not None:
            lines.append(
                f"  run: policy={self.header.get('policy')} "
                f"runtime={self.header.get('runtime')} "
                f"fail_mode={self.header.get('fail_mode')}"
            )
        lines.append(
            f"  records: {self.records} complete"
            + (" + torn tail (crash mid-write)" if self.torn_tail else "")
        )
        lines.append(
            f"  tasks: {len(self.tasks)}  forks: {self.forks}"
            + (f"  completed: {len(self.completed)}" if self.completed else "")
        )
        if self.quarantine is not None:
            lines.append(
                f"  QUARANTINE at {self.quarantine.get('site')!r}: policy "
                f"{self.quarantine.get('policy')!r} was degraded to Armus-only"
            )
        for rec in self.retries:
            lines.append(
                f"  retry: {rec.get('task')} reborn as {rec.get('reborn')} "
                f"(attempt {rec.get('attempt')}) after {rec.get('error')}"
            )
        for waiter, joinee in self.denied:
            lines.append(f"  denied: {waiter} may not join {joinee}")
        for waiter, joinee in self.avoided:
            lines.append(f"  avoided deadlock: {waiter} join {joinee} refused")
        if self.blocked_at_death:
            lines.append("  blocked at death:")
            for waiter, joinee in self.blocked_at_death:
                lines.append(f"    {waiter} was waiting on {joinee}")
        else:
            lines.append("  blocked at death: none")
        if self.rechecked:
            lines.append(
                f"  recheck: {self.rechecked} verdicts re-derived, "
                f"{len(self.recheck_mismatches)} mismatches"
            )
            for waiter, joinee, logged, fresh in self.recheck_mismatches:
                lines.append(
                    f"    MISMATCH {waiter} join {joinee}: journal says "
                    f"{logged}, policy says {fresh}"
                )
        return "\n".join(lines)


def _replay_policy(start: dict) -> Optional[JoinPolicy]:
    """A fresh policy for a ``start`` record (for a sidecar tenant, a
    mirror of the journalled placements), or None if none can be made."""
    try:
        if start.get("tenant") is not None:
            return MirroredSpawnPaths(start["policy"])
        return make_policy(start.get("policy"))
    except Exception:
        return None  # wrapped / unknown policy: names-only replay


def _vertex_name(key: object, rid: object) -> str:
    """A trace journal's ``tN`` as is; a sidecar rid as ``<namespace>:<rid>``."""
    return rid if key is None else f"{key}:{rid}"


def replay_journal(path: str) -> JournalReplay:
    """Reconstruct verifier state from a trace or sidecar journal.

    Reads the journal with :func:`~repro.tools.journal.read_journal`
    (tolerating a crash-torn final record), re-derives the blocked-edge
    set at death (the edges whose last durable record is a ``block``,
    never filtered by joinee completion), and — when the
    header names a reconstructible ``stable_permits`` policy — rebuilds
    the fork tree through a fresh policy instance and re-derives every
    journalled verdict, reporting any disagreement.  Replay stops feeding
    the policy at a quarantine record: from that point the original run
    was using fallback placeholder vertices, so later forks are tracked
    by name only and later verdicts (blanket permits) are not rechecked.

    A sidecar journal (a ``session`` on every record) names vertices by
    client rid, unique only within one verifier: it replays one
    namespace per tenant, or per session without a tenant, each with a
    policy made at its first ``start``, and names vertices
    ``<tenant or session>:<rid>``.  A tenant's forks are placed by their
    journalled ``edge``/``depth``, as the sidecar's own recovery does.
    """
    from .journal import read_journal

    read = read_journal(path)
    replay = JournalReplay(
        path=path,
        header=None,
        torn_tail=read.torn_tail,
        records=len(read.records),
    )
    #: namespace (tenant, session, or None for a trace journal) -> policy
    policies: dict[object, Optional[JoinPolicy]] = {}
    #: sidecar session -> its namespace
    owner: dict[str, str] = {}
    quarantined: set = set()
    vertices: dict[str, object] = {}
    #: last durable state per edge: True = blocked, False = unblocked.
    #: Last-state (not a counter) so a torn or duplicated block/unblock
    #: pair cannot push an edge negative and swallow a later block.
    blocked: dict[tuple[str, str], bool] = {}

    for rec in read.records:
        kind = rec.get("kind")
        session = rec.get("session")
        key = owner.get(session, session)
        if kind == "start":
            replay.header = rec
            if session is not None:
                key = owner[session] = rec.get("tenant") or session
            if session is None or key not in policies:
                policies[key] = _replay_policy(rec)
            continue
        policy = None if key in quarantined else policies.get(key)
        mirrored = isinstance(policy, MirroredSpawnPaths)
        if kind == "init":
            task = _vertex_name(key, rec["task"])
            replay.tasks.append(task)
            if policy is not None:
                if mirrored:
                    policy.stage(rec["task"], -1, 0, 0)
                vertices[task] = policy.add_child(None)
        elif kind == "fork":
            parent = _vertex_name(key, rec["parent"])
            child = _vertex_name(key, rec["child"])
            replay.tasks.append(child)
            replay.forks += 1
            if mirrored and "depth" in rec:
                # The authoritative placement: a tenant's sessions arrive
                # interleaved, so arrival order is not sibling order.
                policy.stage(rec["child"], rec["parent"], rec["edge"], rec["depth"])
                vertices[child] = policy.add_child(None)
            elif policy is not None and not mirrored and parent in vertices:
                vertices[child] = policy.add_child(vertices[parent])
        elif kind == "verdict":
            edge = (_vertex_name(key, rec["waiter"]), _vertex_name(key, rec["joinee"]))
            if not rec["ok"]:
                replay.denied.append(edge)
            if (
                policy is not None
                and policy.stable_permits
                and edge[0] in vertices
                and edge[1] in vertices
            ):
                replay.rechecked += 1
                fresh = policy.permits(vertices[edge[0]], vertices[edge[1]])
                if bool(fresh) != bool(rec["ok"]):
                    replay.recheck_mismatches.append(
                        (edge[0], edge[1], bool(rec["ok"]), bool(fresh))
                    )
        elif kind == "join":
            a, b = _vertex_name(key, rec["waiter"]), _vertex_name(key, rec["joinee"])
            if policy is not None and a in vertices and b in vertices:
                policy.on_join(vertices[a], vertices[b])
        elif kind == "block":
            blocked[(rec["waiter"], rec["joinee"])] = True
        elif kind == "unblock":
            blocked[(rec["waiter"], rec["joinee"])] = False
        elif kind == "complete":
            replay.completed.append(rec["task"])
        elif kind == "avoided":
            replay.avoided.append((rec["waiter"], rec["joinee"]))
        elif kind == "quarantine":
            quarantined.add(key)
            replay.quarantine = rec
        elif kind == "retry":
            replay.retries.append(rec)

    # Honest edge set: whatever the last durable state says, with no
    # completed-joinee filtering (see the JournalReplay docstring) — a
    # journal whose final record is a block reports died_blocked even
    # when the joinee's complete record landed earlier in the file.
    replay.blocked_at_death = sorted(
        (edge for edge, is_blocked in blocked.items() if is_blocked),
        key=lambda e: (int(e[0][1:]) if e[0][1:].isdigit() else 0, e[1]),
    )
    return replay
