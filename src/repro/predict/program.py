"""Reconstruct a runnable program from a trace journal.

The journal names tasks ``t0, t1, ...`` and records, for each, its
forks and join *attempts* in program order — which is everything a
fork/join program is, up to task bodies (pure computation does not
affect the join structure).  :class:`TraceProgram` is that skeleton: a
mapping ``task -> (("fork", child) | ("join", target), ...)``, directly
executable on the cooperative/simulation runtimes.

Join attempts are recovered from the per-edge record patterns:

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

from dataclasses import dataclass, field
from typing import Any, Optional, Union

from ..core.policy import JoinPolicy
from ..errors import (
    DeadlockAvoidedError,
    DeadlockDetectedError,
    PolicyViolationError,
    RuntimeStateError,
    TaskFailedError,
)
from ..runtime.context import require_current_task
from ..runtime.explore import Schedule
from ..runtime.sim import SimRuntime
from ..runtime.task import TaskHandle

__all__ = ["SimOutcome", "TraceProgram"]

PROGRAM_VERSION = 1


class _IssuanceStalled(RuntimeStateError):
    """A reconstructed task waited unboundedly for a future that is
    never issued on this schedule (the forking task is itself stuck)."""


@dataclass(frozen=True)
class TraceProgram:
    """The fork/join skeleton of one journalled run."""

    root: str
    #: task -> its actions in program order
    actions: dict[str, tuple[tuple[str, str], ...]]

    @property
    def tasks(self) -> list[str]:
        return sorted(self.actions, key=_task_sort_key)

    @property
    def total_actions(self) -> int:
        return sum(len(a) for a in self.actions.values())

    def join_edges(self) -> list[tuple[str, str]]:
        """Every (waiter, joinee) join attempt, in reconstruction order."""
        return [
            (task, target)
            for task in self.tasks
            for kind, target in self.actions[task]
            if kind == "join"
        ]

    # ------------------------------------------------------------------
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
        if body.get("version", PROGRAM_VERSION) != PROGRAM_VERSION:
            raise ValueError(f"unsupported program version {body.get('version')!r}")
        return cls(
            root=body["root"],
            actions={
                t: tuple((str(k), str(v)) for k, v in acts)
                for t, acts in body["actions"].items()
            },
        )

    # ------------------------------------------------------------------
    # execution on the deterministic simulator
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
        """One deterministic run of the reconstructed program.

        Policy refusals (``DeadlockAvoidedError`` under a fallback,
        ``PolicyViolationError`` without one) are caught *at the join*
        and recorded — the reconstructed task skips the refused join and
        carries on, exactly like the journal-producing harnesses.  A
        real deadlock (``policy=None`` on a cycle-realizing schedule)
        surfaces as the scheduler's ``DeadlockDetectedError`` and is
        reported with the blocked cycle in journal task names.
        """
        if max_steps is None:
            # generous for the program size, small enough that a
            # stalled-issuance livelock dies quickly during search
            max_steps = 200 * (self.total_actions + len(self.actions) + 1)
        rt = SimRuntime(
            policy,
            fallback=fallback,
            seed=seed,
            schedule=schedule,
            strict=False,
            max_steps=max_steps,
        )
        outcome = SimOutcome()
        futures: dict[str, Any] = {}
        names: dict[TaskHandle, str] = {}
        spin_budget = 4 * max(64, self.total_actions * (len(self.actions) + 1))

        def body(name: str):
            names[require_current_task()] = name
            for kind, target in self.actions.get(name, ()):
                if kind == "fork":
                    futures[target] = rt.fork(body, target)
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
                    # A joinee killed by a refusal cascading up; the
                    # original harnesses swallow these at the join too.
                    outcome.refusals.append((name, target, "TaskFailedError"))
            return name

        try:
            outcome.result = rt.run(body, self.root)
        except DeadlockDetectedError as exc:
            outcome.deadlock = tuple(
                names.get(t, getattr(t, "name", "?")) for t in exc.cycle
            )
            outcome.error = exc
        except BaseException as exc:  # noqa: BLE001 - recorded, not hidden
            outcome.error = exc
        outcome.schedule = rt.recorded_schedule
        outcome.steps = rt.steps
        outcome.timeouts_fired = rt.timeouts_fired
        if rt.detector is not None:
            outcome.deadlocks_avoided = rt.detector.stats.deadlocks_avoided
        return outcome


@dataclass
class SimOutcome:
    """What one simulated run of a :class:`TraceProgram` did."""

    result: Any = None
    error: Optional[BaseException] = None
    #: the realized blocked cycle, in journal task names (None: no deadlock)
    deadlock: Optional[tuple[str, ...]] = None
    #: joins the policy refused, as (waiter, joinee, error-class-name)
    refusals: list[tuple[str, str, str]] = field(default_factory=list)
    #: every scheduling decision of the run, replayable
    schedule: Optional[Schedule] = None
    steps: int = 0
    timeouts_fired: int = 0
    deadlocks_avoided: int = 0

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
