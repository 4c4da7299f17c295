"""The fork/join skeleton of a program, and the two bodies that run it.

:class:`TraceProgram` maps each task to its actions in program order —
everything a fork/join program is, up to task bodies (pure computation
does not affect the join structure).  It is built from a formal trace or
a trace journal, or generated by the chaos and predict corpora
(:mod:`repro.testing.chaos`), and runs as generator tasks on the
simulator (:meth:`~TraceProgram.run_sim`: ``repro replay``/``simulate``,
the predictor) or as blocking tasks on a thread or pool runtime
(:meth:`~TraceProgram.run_blocking`: ``repro run``/``top``, the chaos
and predict corpora).  An action is a pair of strings: ``("fork",
child)``, ``("join", joinee)``, ``("join_batch", joinee)`` (a run of
them is one ``join_batch`` call; the simulator joins them one by one),
``("crash", task)`` (the task raises ``InjectedFaultError``) or
``("fail", "n")`` (the task raises ``RuntimeError`` on each of its
first *n* runs; the blocking body forks it with a retry policy, the
simulator has none).

Global interleaving is left to the scheduler, which is
faithful because both policies are insensitive to it: the TJ order
depends only on per-parent fork order, and KJ knowledge flows only along
each task's own fork/join sequence.  (A join in a live execution also
transfers the joinee's *final* knowledge, so online KJ knowledge is
always a superset of the formal at-position knowledge; tests rely on
exactly that direction.)

Join attempts are recovered from a journal's per-edge record patterns:

* ``verdict`` … ``join`` — a completed join;
* ``verdict`` … ``block`` … ``unblock`` with **no** ``join`` — a join
  rescued by a deadline (the joinee never terminated first);
* ``avoided`` — a join the policy refused outright.

All three were *attempted* by the program, so all three become ``join``
actions: under ``policy=None`` the simulator executes them
unconditionally (realizing cycles the original run escaped by luck or
timeout), and under an avoidance policy the body observes the refusal
exactly where the original did.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Any, Optional, Sequence, TYPE_CHECKING, Union

from ..core.policy import JoinPolicy
from ..errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    InjectedFaultError,
    JoinTimeoutError,
    PolicyQuarantinedError,
    PolicyViolationError,
    RuntimeStateError,
    TaskFailedError,
)
from ..formal.actions import Action, Fork
from ..formal.trace import FreeFamily, validate_trace
from ..runtime.context import require_current_task
from ..runtime.explore import Schedule
from ..runtime.retry import RetryPolicy
from ..runtime.sim import SimRuntime

if TYPE_CHECKING:  # pragma: no cover
    from ..runtime.supervisor import SupervisedJoinMixin

__all__ = ["SimOutcome", "TraceProgram"]

PROGRAM_VERSION = 1

_JOIN_KINDS = ("join", "join_batch")
#: the action kinds whose target is a task of the program
_TASK_KINDS = ("fork",) + _JOIN_KINDS
_KINDS = _TASK_KINDS + ("crash", "fail")
#: a join a verifier fault aborted is retried at most this often
_MAX_FAULT_RETRIES = 50
#: join errors the blocking body records as refusals
_REFUSALS = (TaskFailedError, PolicyViolationError, DeadlockAvoidedError,
             DeadlockDetectedError, JoinTimeoutError, PolicyQuarantinedError)


class _IssuanceStalled(RuntimeStateError):
    """A reconstructed task waited unboundedly for a future that is
    never issued on this schedule (the forking task is itself stuck)."""


@dataclass(frozen=True)
class TraceProgram:
    """The fork/join skeleton of one program: a trace, a journalled run,
    or a generated chaos or predict program."""

    root: str
    #: task -> its actions in program order
    actions: dict[str, tuple[tuple[str, str], ...]]

    @property
    def tasks(self) -> list[str]:
        return sorted(self.actions, key=_task_sort_key)

    @property
    def total_actions(self) -> int:
        return sum(len(a) for a in self.actions.values())

    @property
    def _spin_budget(self) -> int:
        """Yields a join of :meth:`run_sim` waits for its joinee's fork."""
        return 4 * max(64, self.total_actions * (len(self.actions) + 1))

    @property
    def replay_max_steps(self) -> int:
        """A ``max_steps`` for :meth:`run_sim` that no run reaches (each
        task's first step, and per action a whole spin budget and one
        yield), so a trace replay ends only by finishing, by a spin budget
        or by deadlock detection, however long its joiners spin."""
        return len(self.actions) + self.total_actions * (self._spin_budget + 1)

    def join_edges(self) -> list[tuple[str, str]]:
        """Every (waiter, joinee) join attempt, batched ones included, in
        reconstruction order."""
        return [
            (task, target)
            for task in self.tasks
            for kind, target in self.actions[task]
            if kind in _JOIN_KINDS
        ]

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Sequence[Action]) -> "TraceProgram":
        """The program a formal trace describes, each task's forks and
        joins in trace order.  An empty or structurally invalid trace,
        which would fork a task twice or wait forever for a future nobody
        forks, raises ``ValueError`` naming the index, action and reason.
        """
        if not trace:
            raise ValueError("trace is empty; it must start with init")
        bad = validate_trace(trace, FreeFamily).first_violation
        if bad is not None:
            raise ValueError(f"trace action #{bad.index} {bad.action}: {bad.reason}")
        actions: dict[str, list[tuple[str, str]]] = {trace[0].task: []}
        for action in trace[1:]:
            if isinstance(action, Fork):
                actions[action.parent].append(("fork", action.child))
                actions[action.child] = []
            else:
                actions[action.waiter].append(("join", action.joinee))
        return cls(root=trace[0].task, actions={t: tuple(a) for t, a in actions.items()})

    @classmethod
    def from_records(cls, records: list[dict]) -> "TraceProgram":
        """Rebuild the program skeleton from ``read_journal`` records."""
        root: Optional[str] = None
        actions: dict[str, list[tuple[str, str]]] = {}
        open_intent: set[tuple[str, str]] = set()
        for rec in records:
            kind = rec.get("kind")
            if kind == "init":
                if root is None:
                    root = rec["task"]
                actions.setdefault(rec["task"], [])
            elif kind == "fork":
                actions.setdefault(rec["parent"], []).append(("fork", rec["child"]))
                actions.setdefault(rec["child"], [])
            elif kind == "verdict":
                # A verdict on an already-open edge means the prior
                # attempt ended without a ``join`` record (a rescued
                # join) and this is a fresh attempt: a new action.
                edge = (rec["waiter"], rec["joinee"])
                open_intent.discard(edge)
                actions.setdefault(edge[0], []).append(("join", edge[1]))
                open_intent.add(edge)
            elif kind in ("block", "join", "avoided"):
                edge = (rec["waiter"], rec["joinee"])
                if edge not in open_intent:
                    actions.setdefault(edge[0], []).append(("join", edge[1]))
                    open_intent.add(edge)
                if kind in ("join", "avoided"):
                    open_intent.discard(edge)
            # ``unblock`` deliberately does NOT close an intent: only a
            # ``join`` record proves the joinee completed (an unblock
            # may be a deadline rescue, and the block..unblock..join
            # pattern of a completed blocking join is one attempt).
        if root is None:
            raise ValueError("journal has no init record; cannot reconstruct")
        return cls(
            root=root, actions={t: tuple(a) for t, a in actions.items()}
        )

    # -- serialisation (embedded in witness files) ----------------------
    def to_dict(self) -> dict:
        return {
            "version": PROGRAM_VERSION,
            "root": self.root,
            "actions": {t: [list(a) for a in acts] for t, acts in self.actions.items()},
        }

    @classmethod
    def from_dict(cls, body: dict) -> "TraceProgram":
        """The program of a witness file; an unknown action kind, a fork
        or join of a task the program does not have, or a ``fail`` count
        that is not a non-negative integer raises ``ValueError``."""
        if body.get("version", PROGRAM_VERSION) != PROGRAM_VERSION:
            raise ValueError(f"unsupported program version {body.get('version')!r}")
        actions = {
            t: tuple((str(k), str(v)) for k, v in acts)
            for t, acts in body["actions"].items()
        }
        for task, acts in actions.items():
            for kind, target in acts:
                if kind not in _KINDS:
                    raise ValueError(f"task {task}: unknown action kind {kind!r}")
                if kind in _TASK_KINDS and target not in actions:
                    raise ValueError(f"task {task}: {kind} of {target!r}, which is no task")
                if kind == "fail" and not target.isdecimal():
                    raise ValueError(f"task {task}: fail count {target!r} is not an integer >= 0")
        return cls(root=body["root"], actions=actions)

    # ------------------------------------------------------------------
    # the generator body: the deterministic simulator
    # ------------------------------------------------------------------
    def run_sim(
        self,
        policy: Union[None, str, JoinPolicy] = None,
        *,
        fallback: bool = True,
        seed: Optional[int] = None,
        schedule: Optional[Schedule] = None,
        max_steps: Optional[int] = None,
    ) -> "SimOutcome":
        """One deterministic run of the program on a fresh :class:`SimRuntime`.

        Policy refusals (``DeadlockAvoidedError`` under a fallback,
        ``PolicyViolationError`` without one) are caught *at the join*
        and recorded — the task skips the refused join and carries on,
        exactly like the journal-producing harnesses — as is a join on
        the root, which has no future (``JoinOnRoot``), and a join on a
        task that crashed or failed (``TaskFailedError``).  A real
        deadlock (``policy=None`` on a cycle-realizing schedule) surfaces
        as the scheduler's ``DeadlockDetectedError`` and is reported with
        the blocked cycle in the program's task names.
        """
        if max_steps is None:
            # the predictor's search cap: linear in the program's size,
            # so a stalled-issuance livelock dies quickly, and a long
            # spin can reach it too (a replay passes replay_max_steps)
            max_steps = 200 * (self.total_actions + len(self.actions) + 1)
        rt = SimRuntime(
            policy,
            fallback=fallback,
            seed=seed,
            schedule=schedule,
            strict=False,
            max_steps=max_steps,
        )
        outcome = SimOutcome(runtime=rt)
        futures, handles = outcome.futures, outcome.handles
        spin_budget = self._spin_budget

        def body(name: str):
            handles[name] = require_current_task()
            for kind, target in self.actions.get(name, ()):
                if kind == "fork":
                    futures[target] = rt.fork(body, target)
                    continue
                if kind == "crash":
                    raise InjectedFaultError(site=("task", name))
                if kind == "fail":
                    if int(target):
                        raise RuntimeError(f"flaky task {name} attempt 1")
                    continue
                # a join; a join_batch run is joined one by one
                if target == self.root:
                    outcome.refusals.append((name, target, "JoinOnRoot"))
                    continue
                spins = 0
                while target not in futures:
                    spins += 1
                    if spins > spin_budget:
                        raise _IssuanceStalled(
                            f"{name} waited {spins} yields for {target}'s "
                            "future; its forker is stuck on this schedule"
                        )
                    yield None
                try:
                    yield futures[target]
                except (PolicyViolationError, DeadlockAvoidedError) as exc:
                    outcome.refusals.append((name, target, type(exc).__name__))
                except TaskFailedError:
                    # A joinee that crashed, failed, or was killed by a
                    # refusal cascading up; the original harnesses
                    # swallow these at the join too.
                    outcome.refusals.append((name, target, "TaskFailedError"))
                else:
                    outcome.completed_joins.append((name, target))
            return name

        try:
            outcome.result = rt.run(body, self.root)
        except DeadlockDetectedError as exc:
            names = {handle: name for name, handle in handles.items()}
            outcome.deadlock = tuple(
                names.get(t, getattr(t, "name", "?")) for t in exc.cycle
            )
            outcome.error = exc
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            outcome.error = exc
        outcome.schedule = rt.recorded_schedule
        outcome.steps = rt.steps
        outcome.timeouts_fired = rt.timeouts_fired
        return outcome

    # ------------------------------------------------------------------
    # the blocking body: a thread or pool runtime
    # ------------------------------------------------------------------
    def run_blocking(self, rt: "SupervisedJoinMixin", plan: Any = None) -> "SimOutcome":
        """One run of the program on a blocking runtime the caller built
        (a ``TaskRuntime`` or ``WorkSharingRuntime``, with its policy,
        journal and supervision options); ``rt.run`` returns once every
        forked task has terminated.

        A join waits until the joinee's fork is issued, then joins its
        future.  A join the verifier refuses or the supervision layer
        ends (a deadline, a watchdog diagnosis, a quarantined policy, a
        failed joinee, labelled by its cause) is recorded and skipped, as
        is a join on the root.  A join that raises ``InjectedFaultError``
        (a verifier fault: no statistic, no waits-for edge) is counted in
        ``faults`` and retried, at most 50 times.  Any other error
        propagates.  *plan* (a ``FaultPlan``, or anything with its
        ``sleep(site)``) sleeps at ``("start", name)`` and
        ``("pre-join", name, target)``.
        """
        outcome = SimOutcome(runtime=rt)
        futures, handles, starts = outcome.futures, outcome.handles, outcome.starts
        issued = {task: threading.Event() for task in self.actions}
        retry = {
            task: RetryPolicy(max_attempts=int(n) + 1, base_delay=0.0005, max_delay=0.002)
            for task, acts in self.actions.items()
            for kind, n in acts
            if kind == "fail"
        }
        guard = threading.Lock()

        def sleep(site: tuple) -> None:
            if plan is not None:
                plan.sleep(site)

        def issued_future(name: str, target: str):
            """*target*'s future once its fork is issued (None for the
            root, which has none: a refusal)."""
            if target == self.root:
                outcome.refusals.append((name, target, "JoinOnRoot"))
                return None
            issued[target].wait()
            return futures[target]

        def settle(name: str, target: str, result: Any) -> None:
            """A join's end: its joinee's value, or an error that refused it
            (a failed joinee's is labelled by its cause)."""
            if not isinstance(result, _REFUSALS):
                outcome.completed_joins.append((name, target))
                return
            cause = result.__cause__ if isinstance(result, TaskFailedError) else None
            outcome.refusals.append((name, target, type(cause or result).__name__))

        def join(name: str, target: str) -> None:
            sleep(("pre-join", name, target))
            future = issued_future(name, target)
            if future is None:
                return
            for attempt in range(1, _MAX_FAULT_RETRIES + 1):
                try:
                    result = future.join()
                except InjectedFaultError:
                    with guard:
                        outcome.faults += 1
                    if attempt < _MAX_FAULT_RETRIES:
                        continue
                    raise
                except _REFUSALS as exc:
                    result = exc
                return settle(name, target, result)

        def join_batch(name: str, targets: list[str]) -> None:
            batch = [(t, f) for t in targets if (f := issued_future(name, t)) is not None]
            results = rt.join_batch([f for _, f in batch], return_exceptions=True)
            for (target, _), result in zip(batch, results):
                settle(name, target, result)

        def body(name: str):
            handles[name] = require_current_task()
            with guard:
                run = starts[name] = starts.get(name, 0) + 1
            sleep(("start", name))
            for kind, group in groupby(self.actions[name], key=itemgetter(0)):
                targets = [target for _, target in group]
                if kind == "join_batch":
                    join_batch(name, targets)
                    continue
                for target in targets:
                    if kind == "fork":
                        futures[target] = rt.fork(body, target, retry=retry.get(target))
                        issued[target].set()
                    elif kind == "crash":
                        raise InjectedFaultError(site=("task", name))
                    elif kind == "fail":
                        if run <= int(target):
                            raise RuntimeError(f"flaky task {name} attempt {run}")
                    else:
                        join(name, target)
            return name

        outcome.result = rt.run(body, self.root)
        return outcome


@dataclass
class SimOutcome:
    """What one run of a :class:`TraceProgram` did, on either body."""

    result: Any = None
    #: what ended a simulated run early (a blocking run raises it instead)
    error: Optional[BaseException] = None
    #: the realized blocked cycle, in the program's task names (None: no deadlock)
    deadlock: Optional[tuple[str, ...]] = None
    #: joins that completed, as (waiter, joinee), in completion order
    completed_joins: list[tuple[str, str]] = field(default_factory=list)
    #: joins refused or ended early, as (waiter, joinee, error-class-name)
    refusals: list[tuple[str, str, str]] = field(default_factory=list)
    #: every scheduling decision of a simulated run, replayable
    schedule: Optional[Schedule] = None
    steps: int = 0
    timeouts_fired: int = 0
    #: the runtime the program ran on (its verifier and detector stats)
    runtime: Any = None
    #: task name -> the TaskHandle of its last run
    handles: dict[str, Any] = field(default_factory=dict)
    #: task name -> its Future (the root has none)
    futures: dict[str, Any] = field(default_factory=dict)
    #: task name -> body runs; a retried task runs more than once (blocking body)
    starts: dict[str, int] = field(default_factory=dict)
    #: joins a verifier fault aborted, each one retried (blocking body)
    faults: int = 0

    @property
    def clean(self) -> bool:
        """Every join completed: no refusal, no deadlock, no error."""
        return not self.refusals and self.deadlock is None and self.error is None

    @property
    def verdict(self) -> str:
        """One word for what the policy did on this schedule:
        ``deadlock`` / ``avoided`` / ``denied`` / ``clean`` / ``error``."""
        if self.deadlock is not None:
            return "deadlock"
        if any(r[2] == "DeadlockAvoidedError" for r in self.refusals):
            return "avoided"
        if any(r[2] == "PolicyViolationError" for r in self.refusals):
            return "denied"
        if self.error is not None:
            return "error"
        return "clean"


def _task_sort_key(name: str) -> tuple[int, str]:
    return (int(name[1:]) if name[1:].isdigit() else -1, name)
