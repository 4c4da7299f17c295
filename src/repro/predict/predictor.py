"""The offline deadlock predictor: journal in, witnesses out.

Pipeline (one journal):

1. **Parse** — ``read_trace_journal`` (crash-tolerant; a sidecar
   journal raises), skipping journals with ``retry``/``quarantine``
   records (those re-point task vertices mid-run; per-name
   reconstruction would be unsound).
2. **Reconstruct** — the fork/join skeleton
   (:class:`~repro.predict.program.TraceProgram`) and every join
   *intent* with its outcome on the recorded schedule.
3. **Order** — the must-happen-before partial order
   (:func:`~repro.predict.order.build_order`).
4. **Candidates** — simple cycles of the wait-intent graph, keeping
   those the partial order cannot refute: a cycle dies only if some
   joinee's completion *must* precede its waiter's join issue (then
   that edge can never block, in any linearization).
5. **Realize** — :func:`~repro.runtime.explore.explore` walks the
   simulator's scheduling decisions depth-first under ``policy=None``
   until candidate cycles actually close.  Each realized cycle becomes
   a :class:`PredictedDeadlock` whose witness
   :class:`~repro.runtime.explore.Schedule` replays the deadlock
   exactly; the same witness is then replayed under each avoidance
   policy to record its verdict along that schedule.

Realization makes the predictor *sound by construction*: nothing is
flagged that the simulator has not already reproduced.  The partial
order keeps it *efficient*: journals whose every cycle is refuted (the
common case — any run whose joins all completed) skip simulation
entirely.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional, Sequence

from ..errors import JournalError
from ..runtime.explore import Schedule, explore
from ..tools.journal import read_trace_journal
from .order import TraceOrder, build_order
from .program import SimOutcome, TraceProgram, _task_sort_key

__all__ = [
    "JoinIntent",
    "PredictedDeadlock",
    "PredictionReport",
    "predict_deadlocks",
]

WITNESS_VERSION = 1

#: default policies whose verdicts are recorded along each witness
DEFAULT_POLICIES = ("TJ-SP", "KJ-VC")


@dataclass(frozen=True)
class JoinIntent:
    """One join attempt the journal records, with its recorded fate."""

    waiter: str
    joinee: str
    #: ``completed`` | ``rescued`` | ``avoided`` | ``blocked`` (at death)
    status: str
    #: index (into the trace order's event list) where the attempt begins
    issue_at: int

    @property
    def edge(self) -> tuple[str, str]:
        return (self.waiter, self.joinee)


@dataclass
class PredictedDeadlock:
    """A deadlock reachable by re-scheduling the journalled program.

    ``cycle`` is the realized blocked cycle (journal task names) and
    ``schedule`` the witness that realizes it: replaying the
    reconstructed ``program`` through ``SimRuntime(policy=None,
    schedule=schedule)`` blocks exactly this cycle.  ``verdicts`` maps
    each avoidance policy to its outcome along the same witness
    (``avoided`` / ``denied`` / ``clean`` — never ``deadlock``, that is
    the soundness theorem at work).
    """

    cycle: tuple[str, ...]
    schedule: Schedule
    verdicts: dict[str, str]
    program: TraceProgram
    journal: str = ""
    #: the recorded run completed cleanly (nothing blocked at death) —
    #: the prediction is purely counterfactual
    clean_run: bool = True

    # -- the witness-file format (docs/prediction.md) -------------------
    def to_dict(self) -> dict:
        return {
            "version": WITNESS_VERSION,
            "kind": "predicted-deadlock",
            "journal": self.journal,
            "cycle": list(self.cycle),
            "schedule": self.schedule.to_dict(),
            "verdicts": dict(self.verdicts),
            "clean_run": self.clean_run,
            "program": self.program.to_dict(),
        }

    @classmethod
    def from_dict(cls, body: dict) -> "PredictedDeadlock":
        if not isinstance(body, dict) or body.get("kind") != "predicted-deadlock":
            raise ValueError("not a predicted-deadlock witness file")
        if body.get("version", WITNESS_VERSION) != WITNESS_VERSION:
            raise ValueError(f"unsupported witness version {body.get('version')!r}")
        return cls(
            cycle=tuple(body["cycle"]),
            schedule=Schedule.from_dict(body["schedule"]),
            verdicts=dict(body.get("verdicts", {})),
            program=TraceProgram.from_dict(body["program"]),
            journal=body.get("journal", ""),
            clean_run=bool(body.get("clean_run", True)),
        )

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "PredictedDeadlock":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def reproduce(self, **kwargs) -> SimOutcome:
        """Replay the witness under ``policy=None`` (kwargs override)."""
        kwargs.setdefault("schedule", self.schedule)
        return self.program.run_sim(None, fallback=False, **kwargs)


@dataclass
class PredictionReport:
    """Everything one ``predict_deadlocks`` call learned."""

    path: str
    events: int = 0
    torn_tail: bool = False
    #: reconstruction skipped (retry/quarantine journal, no init, ...)
    skipped: Optional[str] = None
    program: Optional[TraceProgram] = None
    intents: list[JoinIntent] = field(default_factory=list)
    #: cycles surviving the partial-order filter, before realization
    candidates: list[tuple[str, ...]] = field(default_factory=list)
    #: cycles the partial order refuted outright
    refuted: int = 0
    predictions: list[PredictedDeadlock] = field(default_factory=list)
    #: simulator runs spent realizing candidates
    sim_runs: int = 0
    #: scheduler steps across those runs (throughput accounting)
    sim_steps: int = 0
    #: the recorded run completed cleanly
    clean_run: bool = True

    @property
    def flagged(self) -> bool:
        return bool(self.predictions)

    def report(self) -> str:
        lines = [f"prediction report: {self.path}"]
        lines.append(
            f"  events: {self.events}"
            + (" + torn tail" if self.torn_tail else "")
            + f"  recorded run: {'clean' if self.clean_run else 'died blocked'}"
        )
        if self.skipped is not None:
            lines.append(f"  skipped: {self.skipped}")
            return "\n".join(lines)
        assert self.program is not None
        lines.append(
            f"  program: {len(self.program.actions)} tasks, "
            f"{len(self.program.join_edges())} join attempts "
            f"({sum(1 for i in self.intents if i.status == 'rescued')} rescued, "
            f"{sum(1 for i in self.intents if i.status == 'avoided')} avoided)"
        )
        lines.append(
            f"  cycles: {len(self.candidates)} candidate after partial-order "
            f"filter ({self.refuted} refuted), {self.sim_runs} simulator runs"
        )
        if not self.predictions:
            lines.append("  predicted deadlocks: none")
        for n, pred in enumerate(self.predictions):
            lines.append(
                f"  predicted deadlock #{n}: cycle "
                + " -> ".join(pred.cycle + (pred.cycle[0],))
            )
            lines.append(
                f"    witness: {len(pred.schedule)} scheduling decisions"
                + ("  (counterfactual: recorded run was clean)" if pred.clean_run else "")
            )
            for policy, verdict in pred.verdicts.items():
                lines.append(f"    under {policy}: {verdict}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# intent extraction
# ----------------------------------------------------------------------
def _extract_intents(order: TraceOrder) -> list[JoinIntent]:
    """Classify every join attempt by its per-edge record pattern."""
    intents: list[JoinIntent] = []
    #: edge -> (issue event index, saw-block) of the open attempt
    open_at: dict[tuple[str, str], tuple[int, bool]] = {}

    def close(edge: tuple[str, str], status: str) -> None:
        issue_at, _ = open_at.pop(edge)
        intents.append(JoinIntent(edge[0], edge[1], status, issue_at))

    for event in order.events:
        edge = event.edge
        if edge is None:
            continue
        if event.kind == "verdict":
            if edge in open_at:
                close(edge, "rescued")  # prior attempt never joined
            open_at[edge] = (event.index, False)
        elif event.kind == "block":
            if edge not in open_at:
                open_at[edge] = (event.index, True)
            else:
                open_at[edge] = (open_at[edge][0], True)
        elif event.kind == "join":
            if edge not in open_at:
                open_at[edge] = (event.index, False)
            close(edge, "completed")
        elif event.kind == "avoided":
            if edge not in open_at:
                open_at[edge] = (event.index, False)
            close(edge, "avoided")
        elif event.kind == "unblock":
            # The wait ended — but only a ``join`` record proves the
            # joinee completed.  Clear the blocked flag so an attempt
            # left open at journal end reads "rescued", not "blocked".
            if edge in open_at:
                open_at[edge] = (open_at[edge][0], False)
    for edge, (issue_at, blocked) in open_at.items():
        intents.append(
            JoinIntent(edge[0], edge[1], "blocked" if blocked else "rescued", issue_at)
        )
    return intents


# ----------------------------------------------------------------------
# candidate cycles
# ----------------------------------------------------------------------
def _candidate_cycles(
    intents: Sequence[JoinIntent],
    order: TraceOrder,
    *,
    max_len: int,
) -> tuple[list[tuple[str, ...]], int]:
    """Simple cycles of the wait-intent graph the partial order allows.

    An intent edge ``w -> j`` can block in *some* linearization unless
    ``complete(j)`` must-happen-before the attempt's issue event; a
    cycle is a candidate when every edge on it can block.  Returns
    ``(candidates, refuted_count)`` with each cycle canonicalized to
    start at its lexicographically smallest task.
    """
    # keep, per edge, the intent with the weakest refutation (any
    # attempt that can block makes the edge usable)
    usable: dict[str, dict[str, JoinIntent]] = {}
    for intent in intents:
        done_at = order.completion_event(intent.joinee)
        if done_at is not None and order.must_precede(done_at, intent.issue_at):
            continue  # the joinee was necessarily done; can never block
        usable.setdefault(intent.waiter, {}).setdefault(intent.joinee, intent)

    candidates: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    refuted = 0

    def canon(path: tuple[str, ...]) -> tuple[str, ...]:
        at = min(range(len(path)), key=lambda i: _task_sort_key(path[i]))
        return path[at:] + path[:at]

    def walk(start: str, path: list[str], on_path: set[str]) -> None:
        nonlocal refuted
        here = path[-1]
        for nxt in sorted(usable.get(here, ()), key=_task_sort_key):
            if nxt == start:
                cycle = canon(tuple(path))
                if cycle not in seen:
                    seen.add(cycle)
                    candidates.append(cycle)
                continue
            if nxt in on_path or len(path) >= max_len:
                continue
            if _task_sort_key(nxt) < _task_sort_key(start):
                continue  # canonical start is the smallest task
            on_path.add(nxt)
            path.append(nxt)
            walk(start, path, on_path)
            path.pop()
            on_path.discard(nxt)

    # count refutations for the report (edges an intent lost to the filter)
    for intent in intents:
        done_at = order.completion_event(intent.joinee)
        if done_at is not None and order.must_precede(done_at, intent.issue_at):
            refuted += 1
    for start in sorted(usable, key=_task_sort_key):
        walk(start, [start], {start})
    candidates.sort(key=lambda c: (len(c), [_task_sort_key(t) for t in c]))
    return candidates, refuted


# ----------------------------------------------------------------------
# the predictor
# ----------------------------------------------------------------------
def predict_deadlocks(
    path: str,
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    max_schedules: int = 256,
    max_cycle_len: int = 6,
    max_steps: Optional[int] = None,
) -> PredictionReport:
    """Predict deadlocks reachable by re-scheduling journal *path*.

    ``max_schedules`` bounds the simulator runs of the realization walk;
    ``max_cycle_len`` bounds candidate cycle length; ``max_steps``
    bounds each simulated run (default: scaled to the program size).
    The search stops early once every candidate cycle (by task set) has
    been realized.  Deterministic end to end: same journal, same
    arguments ⇒ same report.
    """
    read = read_trace_journal(path, "predict")
    report = PredictionReport(
        path=path, events=len(read.records), torn_tail=read.torn_tail
    )

    blocked_last: dict[tuple[str, str], bool] = {}
    for rec in read.records:
        kind = rec.get("kind")
        if kind in ("retry", "quarantine"):
            report.skipped = (
                f"journal contains a {kind!r} record; task identities are "
                "re-pointed mid-run and per-name reconstruction is unsound"
            )
        elif kind == "block":
            blocked_last[(rec["waiter"], rec["joinee"])] = True
        elif kind == "unblock":
            blocked_last[(rec["waiter"], rec["joinee"])] = False
    report.clean_run = not any(blocked_last.values()) and not read.torn_tail
    if report.skipped is not None:
        return report
    if not read.records:
        report.skipped = "empty journal"
        return report

    try:
        program = TraceProgram.from_records(read.records)
    except ValueError as exc:
        report.skipped = str(exc)
        return report
    report.program = program

    order = build_order(read.records)
    report.intents = _extract_intents(order)
    report.candidates, report.refuted = _candidate_cycles(
        report.intents, order, max_len=max_cycle_len
    )
    if not report.candidates:
        return report  # every cycle refuted without a single simulation

    # ------------------------------------------------------------------
    # realization: the schedule explorer under policy=None
    # ------------------------------------------------------------------
    def realize(prefix: Schedule) -> SimOutcome:
        return program.run_sim(
            None, fallback=False, schedule=prefix, max_steps=max_steps
        )

    wanted = {frozenset(c) for c in report.candidates}
    found: dict[frozenset, PredictedDeadlock] = {}
    for outcome in islice(explore(realize), max(max_schedules, 0)):
        report.sim_runs += 1
        report.sim_steps += outcome.steps
        cycle = outcome.deadlock
        if cycle is not None and frozenset(cycle) not in found:
            pred = PredictedDeadlock(
                cycle=cycle,
                schedule=outcome.schedule,
                verdicts={},
                program=program,
                journal=path,
                clean_run=report.clean_run,
            )
            for policy in policies:
                replay = program.run_sim(
                    policy, fallback=True, schedule=outcome.schedule, max_steps=max_steps
                )
                report.sim_steps += replay.steps
                pred.verdicts[policy] = replay.verdict
            found[frozenset(cycle)] = pred
        if len(found) >= len(wanted):
            break

    report.predictions = sorted(
        found.values(), key=lambda p: [_task_sort_key(t) for t in p.cycle]
    )
    return report


def read_witness(path: str) -> PredictedDeadlock:
    """Load a witness file written by ``PredictedDeadlock.save`` (or the
    ``repro predict --witness-out`` CLI)."""
    try:
        return PredictedDeadlock.load(path)
    except (OSError, ValueError, KeyError, AttributeError, TypeError) as exc:
        raise JournalError(f"cannot load witness file {path!r}: {exc}") from exc
