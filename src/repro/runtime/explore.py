"""Schedules and systematic schedule exploration.

The paper repeatedly appeals to *nondeterministic* behaviour — Listing 1
"may" violate KJ, NQueens "potentially violates" it "due to variations
in task scheduling" (Section 1).  This module turns those modal claims
into checkable artifacts.  A :class:`Schedule` names one interleaving of
a cooperative program (the decisions :class:`~repro.runtime.sim.SimRuntime`
took or is told to take), and :func:`explore` walks every interleaving
depth-first: each run replays a decision prefix, then the recorded
branching widths open the sibling branches — the stateless-model-checking
discipline.  The caller's run function reports whatever it needs per
schedule, so one can assert statements like "there EXISTS a schedule
where this program violates KJ" and "there is NO schedule where it
violates TJ"; the predictor (:mod:`repro.predict`) walks the same space
to realize candidate deadlock cycles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, TypeVar

__all__ = ["Schedule", "explore"]


#: file-format version of a serialised schedule (bumped on layout change)
SCHEDULE_VERSION = 1


@dataclass(frozen=True)
class Schedule:
    """One deterministic interleaving of a cooperative program.

    The canonical currency of schedule replay, shared by the explorer,
    the deterministic simulator (:mod:`repro.runtime.sim`) and the
    predictor (:mod:`repro.predict`): ``choices[k]`` is the index picked
    at the k-th *real* decision point (ready-queue width > 1; width-1
    steps are not decisions and are not recorded).  ``widths`` — when
    present — records the queue width at each decision so a replay can
    verify it is walking the same tree; ``seed`` names the generator
    seed the schedule was recorded under, when it came from one.

    A schedule shorter than the run it replays is a *prefix*: decisions
    past its end fall back to the replaying scheduler's default policy.
    """

    choices: tuple[int, ...]
    widths: tuple[int, ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(int(c) for c in self.choices))
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if self.widths and len(self.widths) != len(self.choices):
            raise ValueError(
                f"widths ({len(self.widths)}) must match choices "
                f"({len(self.choices)}) when present"
            )
        for i, c in enumerate(self.choices):
            if c < 0 or (self.widths and c >= self.widths[i]):
                raise ValueError(f"choice {c} at decision {i} out of range")

    def __len__(self) -> int:
        return len(self.choices)

    # -- serialisation (the witness-schedule format of docs/prediction.md)
    def to_dict(self) -> dict:
        body: dict = {"version": SCHEDULE_VERSION, "choices": list(self.choices)}
        if self.widths:
            body["widths"] = list(self.widths)
        if self.seed is not None:
            body["seed"] = self.seed
        return body

    @classmethod
    def from_dict(cls, body: dict) -> "Schedule":
        if body.get("version", SCHEDULE_VERSION) != SCHEDULE_VERSION:
            raise ValueError(f"unsupported schedule version {body.get('version')!r}")
        return cls(
            choices=tuple(body.get("choices", ())),
            widths=tuple(body.get("widths", ())),
            seed=body.get("seed"),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "Schedule":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps() + "\n")

    @classmethod
    def load(cls, path: str) -> "Schedule":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


_Outcome = TypeVar("_Outcome")


def explore(run: Callable[[Schedule], _Outcome]) -> Iterator[_Outcome]:
    """Yield one outcome per schedule of a program, depth-first.

    ``run(prefix)`` executes the program once: it replays the prefix
    :class:`Schedule`, takes index 0 at every later decision (as an
    unseeded ``SimRuntime(schedule=prefix)`` does), and returns an
    outcome whose ``schedule`` is the run's recorded Schedule, widths
    included.  Each outcome is yielded before its sibling branches open,
    so the caller bounds or stops the walk itself (``itertools.islice``,
    ``break``); drained, the walk visits every schedule exactly once —
    a branch differs from the run that opened it at its own depth, and
    replay is deterministic, so no two prefixes give one schedule.
    """
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        outcome = run(Schedule(choices=prefix))
        yield outcome
        taken = outcome.schedule
        for depth in range(len(prefix), len(taken.widths)):
            for branch in range(1, taken.widths[depth]):
                stack.append(taken.choices[:depth] + (branch,))
