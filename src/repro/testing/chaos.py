"""Seeded random fork/join programs with invariant checking.

:func:`generate_spec` derives a whole program — task tree, join
schedule, crash sites — from one integer seed, as a
:class:`~repro.predict.TraceProgram` of tasks ``t0`` (the root), ``t1``,
…, so a chaos failure is reproducible from its seed alone.  Programs are
**deadlock-free by construction**:

* every parent joins all of its children (so the tree quiesces);
* a task may additionally join an *older* sibling — the waits-on
  relation among siblings strictly decreases the sibling index, so no
  sibling cycle can form (and younger-joins-older is TJ-valid; the
  reverse direction is the classic TJ violation);
* a task may join a *grandchild*, but only after joining the child that
  forked it (a transitive join: TJ-valid, yet flagged by several KJ
  policies — which is exactly how the suite exercises the Armus
  false-positive path under load).

Injected crashes (``crash`` actions) fire *after* a task has performed
all of its joins, so a crashed task never abandons children; every crash
is observed by a joiner as :class:`~repro.errors.TaskFailedError` and
recorded as a refusal.

:func:`run_chaos_program` runs a program through the one blocking body,
:meth:`TraceProgram.run_blocking <repro.predict.TraceProgram.run_blocking>`,
with the delays and ``permits`` faults its :class:`FaultPlan` schedules
and, with ``fail_attempts``, flaky leaves that a retry policy re-runs to
success.  After the run it checks (raising :class:`ChaosInvariantError`
on any violation) that the runtime quiesced
(:func:`quiescence_violations`), that the accounting is exact (``forks
== n_tasks + retries``, ``joins_checked`` == completed + refused ==
planned joins), that the refused joins are exactly those on planned
crashes, and, under a TJ policy, that every verdict agrees with
:class:`~repro.formal.TJOrderOracle` on the program's fork tree
(Thm 3.17).

For ``stable_permits`` policies the result also carries the post-hoc
permission verdict of every join edge (queried directly from the policy,
which is side-effect free), so callers can assert the verdict stream is
identical with and without injected delays.

:func:`run_predict_program` runs the predict corpus through the same
body.  The quarantine runner (which checks mid-run that a sacrificial
join tripped the quarantine) and the procs runner (subtrees dispatched
to worker processes) drive programs a skeleton cannot state.  The
sweep, verifier-fault, retry and quarantine slices build their runtimes
with :func:`_make_runtime` and end with :func:`quiescence_violations`.
"""

from __future__ import annotations

import random
import threading
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.policy import JoinPolicy
from ..core.verifier import VerifierStats
from ..errors import (
    DeadlockAvoidedError,
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
)
from ..formal.tj_relation import TJOrderOracle
from ..predict import SimOutcome, TraceProgram
from ..runtime.context import require_current_task
from ..runtime.pool import WorkSharingRuntime
from ..runtime.task import TaskState
from ..runtime.threaded import TaskRuntime, resolve_policy
from .faults import FaultPlan, FaultyPolicy

__all__ = [
    "ChaosInvariantError",
    "ChaosResult",
    "ProcsChaosResult",
    "QuarantineChaosResult",
    "PredictChaosResult",
    "generate_predict_spec",
    "generate_spec",
    "quiescence_violations",
    "repro_command",
    "run_chaos_program",
    "run_predict_loop",
    "run_predict_program",
    "run_procs_divergence",
    "run_with_policy_quarantine",
]

RUNTIMES = ("threaded", "pool")

#: share of the join-free leaves a ``fail_attempts`` run makes flaky
_FLAKY_RATE = 0.6
#: true deadlock pairs a fail-open quarantine run seeds
_QUARANTINE_PAIRS = 3
#: leaves a fail-closed quarantine run forks and joins
_QUARANTINE_LEAVES = 4


class ChaosInvariantError(AssertionError):
    """A supervised-runtime invariant did not hold after a chaos run."""


@dataclass
class ChaosResult:
    """What one chaos run produced (after passing the invariant checks)."""

    program: TraceProgram
    policy_name: str
    runtime: str
    stats: VerifierStats
    #: (joiner, joinee) -> permitted?  Only for stable_permits policies.
    verdicts: Optional[dict[tuple[str, str], bool]]
    #: tasks whose failure was observed at a join
    failures_observed: frozenset[str]
    false_positives: int = 0
    deadlocks_avoided: int = 0
    #: leaves forked with a retry policy (each fails ``fail_attempts`` times)
    flaky_tasks: frozenset[str] = frozenset()
    #: re-forks the supervisor performed
    retries: int = 0
    #: join attempts a verifier fault aborted (each one was retried)
    faults: int = 0
    violations: list[str] = field(default_factory=list)
    #: joins that ran their still-queued joinee inline (the pool only)
    inline_joins: int = 0


def _name(i: int) -> str:
    return f"t{i}"


def generate_spec(seed: int, *, max_tasks: int = 12, crash_rate: float = 0.0) -> TraceProgram:
    """Derive a deadlock-free program from *seed*.

    Each task's actions are, in order: its forks, its older-sibling
    joins, its child joins (``join_batch`` for a batch parent), its
    grandchild joins, then its ``crash``.
    """
    if max_tasks < 3:
        raise ValueError("max_tasks must be at least 3")
    rng = random.Random(f"chaos-spec|{seed}")
    n = rng.randint(3, max_tasks)
    parent = {i: rng.randrange(0, i) for i in range(1, n)}
    children = {t: [i for i in range(1, n) if parent[i] == t] for t in range(n)}
    sibling_joins: dict[int, list[int]] = {t: [] for t in range(n)}
    for i in range(1, n):
        older = [j for j in children[parent[i]] if j < i]
        if older and rng.random() < 0.35:
            sibling_joins[i] = [rng.choice(older)]
    grandchild_joins = {
        t: [g for c in children[t] for g in children[c] if rng.random() < 0.3]
        for t in range(n)
    }
    batch_parents = {t for t in range(n) if len(children[t]) >= 2 and rng.random() < 0.5}
    crash_tasks = {i for i in range(1, n) if crash_rate > 0.0 and rng.random() < crash_rate}
    actions = {}
    for t in range(n):
        child_join = "join_batch" if t in batch_parents else "join"
        actions[_name(t)] = tuple(
            [("fork", _name(c)) for c in children[t]]
            + [("join", _name(s)) for s in sibling_joins[t]]
            + [(child_join, _name(c)) for c in children[t]]
            + [("join", _name(g)) for g in grandchild_joins[t]]
            + [("crash", _name(t))] * (t in crash_tasks)
        )
    return TraceProgram(root=_name(0), actions=actions)


def _make_runtime(
    runtime: str,
    policy: Union[None, str, JoinPolicy],
    *,
    workers: int = 4,
    **options,
):
    """The blocking runtime a threaded/pool slice runs on.

    *options* (``fail_mode``) pass through to the runtime;
    the watchdog stays on and unjoined failures stay quiet, because the
    runners observe every failure themselves.
    """
    if runtime == "threaded":
        return TaskRuntime(policy, on_unjoined_failure="ignore", **options)
    if runtime == "pool":
        return WorkSharingRuntime(
            policy, workers=workers, on_unjoined_failure="ignore", **options
        )
    raise ValueError(f"unknown runtime {runtime!r}; known: {RUNTIMES}")


def quiescence_violations(rt, handles: dict, futures: dict) -> list[str]:
    """The end state every threaded/pool slice must reach, as violations.

    *handles* and *futures* map a task label to its TaskHandle and its
    Future.  One message per breach of: every future done, no task left
    ``BLOCKED``, an empty waits-for graph (the runtime's one store of
    blocked joins, Armus's included), no live forced edge, no watchdog
    diagnosis.
    """
    problems = [
        f"task {label} future not done after run()"
        for label, fut in futures.items()
        if not fut.done()
    ]
    problems += [
        f"task {label} left in BLOCKED state"
        for label, handle in handles.items()
        if handle.state is TaskState.BLOCKED
    ]
    blocked = rt.blocked_joins()
    if blocked:
        problems.append(f"waits-for graph not empty: {blocked}")
    detector = rt.detector
    if detector is not None and detector.live_forced_edges:
        problems.append(f"{detector.live_forced_edges} forced edges still live")
    if rt.watchdog is not None and rt.watchdog.deadlocks_detected:
        problems.append("watchdog diagnosed a deadlock")
    return problems


def _flaky_leaves(
    program: TraceProgram, seed: int, fail_attempts: int
) -> tuple[TraceProgram, frozenset[str]]:
    """Prepend a ``fail`` action to seeded join-free leaves.

    A join-free leaf (no forks, no sibling joins) forks and joins
    nothing, so re-running its body cannot change the join accounting.
    When every leaf joins a sibling, the youngest leaf is freed of its
    sibling joins so that one candidate exists.
    """
    actions = dict(program.actions)
    leaves = [
        t for t in program.tasks
        if t != program.root and all(kind != "fork" for kind, _ in actions[t])
    ]
    eligible = [t for t in leaves if all(kind != "join" for kind, _ in actions[t])]
    if not eligible:
        victim = leaves[-1]
        actions[victim] = tuple(a for a in actions[victim] if a[0] != "join")
        eligible = [victim]
    rng = random.Random(f"chaos-retry|{seed}")
    flaky = frozenset(rng.sample(eligible, max(1, round(len(eligible) * _FLAKY_RATE))))
    for t in flaky:
        actions[t] = (("fail", str(fail_attempts)),) + actions[t]
    return TraceProgram(program.root, actions), flaky


def _tj_order_violations(
    program: TraceProgram, policy: JoinPolicy, outcome: SimOutcome
) -> list[str]:
    """Every ordered pair of tasks that ran once on which ``permits``
    disagrees with the TJ order of the program's fork tree.

    A retried task is left out: its retry re-forks it as a younger
    sibling, at a time the program does not fix.
    """
    order = TJOrderOracle()
    order.init(program.root)
    todo = [program.root]
    while todo:
        parent = todo.pop()
        for kind, child in program.actions[parent]:
            if kind == "fork":
                order.fork(parent, child)
                todo.append(child)
    once = [t for t in program.tasks if outcome.starts.get(t) == 1]
    problems = []
    for a in once:
        for b in once:
            if a == b:
                continue
            want = order.less(a, b)
            if policy.permits(outcome.handles[a].vertex, outcome.handles[b].vertex) != want:
                problems.append(f"permits({a}, {b}) is {not want}, the TJ order says {want}")
    return problems


def run_chaos_program(
    seed: int,
    *,
    policy: Union[None, str, JoinPolicy] = "TJ-SP",
    runtime: str = "threaded",
    max_tasks: int = 12,
    crash_rate: float = 0.0,
    plan: Optional[FaultPlan] = None,
    fail_attempts: int = 0,
    check: bool = True,
) -> ChaosResult:
    """Run one seeded chaos program and verify the runtime's invariants.

    *plan* schedules the delays and, through ``verifier_fault_rate``,
    faults raised from inside ``permits``.  A faulted call records no
    statistic and no waits-for edge, so the body retries the join; the
    program then also joins one at a time (``join_batch`` becomes
    ``join``), since a fault inside a batch ``check_joins`` would
    discard the whole batch's accounting.  With *fail_attempts*, a
    seeded share of the join-free leaves fails that many times before
    its retry policy re-runs it to success.

    With ``check=True`` (default) any violated invariant raises
    :class:`ChaosInvariantError`; with ``check=False`` violations are
    collected into ``result.violations`` instead (the CLI uses this to
    report all of them).
    """
    program = generate_spec(seed, max_tasks=max_tasks, crash_rate=crash_rate)
    if plan is None:
        plan = FaultPlan(seed=seed)
    inner = resolve_policy(policy)
    faulty = None
    if plan.verifier_fault_rate > 0:
        program = TraceProgram(program.root, {
            task: tuple(("join" if kind == "join_batch" else kind, target) for kind, target in acts)
            for task, acts in program.actions.items()
        })
        faulty = FaultyPolicy(inner, plan)
    flaky: frozenset[str] = frozenset()
    if fail_attempts:
        program, flaky = _flaky_leaves(program, seed, fail_attempts)
    rt = _make_runtime(runtime, faulty or inner)
    outcome = program.run_blocking(rt, plan)

    stats = rt.verifier.stats
    detector = rt.detector
    n_tasks = len(program.actions)
    retries = fail_attempts * len(flaky)
    joined = len(outcome.completed_joins) + len(outcome.refusals)
    planned = len(program.join_edges())
    injected = faulty.faults_injected if faulty else 0
    runs = {t: outcome.starts.get(t, 0) for t in program.tasks if t in flaky}
    observed = {joinee for _, joinee, _ in outcome.refusals}
    crashes = {t for t, acts in program.actions.items() if ("crash", t) in acts}
    not_crashes = [r for r in outcome.refusals if r[2] != "InjectedFaultError"]
    checks = [
        (set(outcome.futures) == set(program.actions) - {program.root},
         f"expected futures for tasks t1..t{n_tasks - 1}, got {sorted(outcome.futures)}"),
        (not detector or detector.stats.deadlocks_avoided == 0,
         "deadlock-free program had a join refused"),
        (not not_crashes,
         f"joins refused for a cause other than a planned crash: {not_crashes}"),
        (rt.tasks_retried == retries,
         f"tasks_retried {rt.tasks_retried} != expected {retries}"),
        (stats.forks == n_tasks + retries,
         f"forks {stats.forks} != n_tasks + retries {n_tasks + retries}"),
        (stats.joins_checked == joined,
         f"joins_checked {stats.joins_checked} != completed + refused joins {joined}"),
        (joined == planned,
         f"successful joins {joined} != planned {planned}"),
        (outcome.faults == injected,
         f"harness saw {outcome.faults} faults, policy injected {injected}"),
        (all(n == fail_attempts + 1 for n in runs.values()),
         f"flaky task runs {runs}, expected {fail_attempts + 1} each"),
        (observed == crashes,
         f"observed failures {sorted(observed)} != planned {sorted(crashes)}"),
    ]
    violations = quiescence_violations(rt, outcome.handles, outcome.futures)
    violations += [message for ok, message in checks if not ok]
    if inner.name.startswith("TJ-"):
        violations += _tj_order_violations(program, inner, outcome)

    verdicts: Optional[dict[tuple[str, str], bool]] = None
    if inner.stable_permits and not violations:
        vertex = {t: handle.vertex for t, handle in outcome.handles.items()}
        verdicts = {
            (a, b): inner.permits(vertex[a], vertex[b]) for a, b in program.join_edges()
        }

    policy_name = rt.policy.name
    if check and violations:
        raise ChaosInvariantError(
            f"seed {seed} policy {policy_name} runtime {runtime}: "
            + "; ".join(violations)
        )
    return ChaosResult(
        program=program,
        policy_name=policy_name,
        runtime=runtime,
        stats=stats,
        verdicts=verdicts,
        failures_observed=frozenset(observed),
        false_positives=detector.stats.false_positives if detector else 0,
        deadlocks_avoided=detector.stats.deadlocks_avoided if detector else 0,
        flaky_tasks=flaky,
        retries=rt.tasks_retried,
        faults=outcome.faults,
        violations=violations,
        inline_joins=getattr(rt, "inline_joins", 0),
    )


@dataclass
class QuarantineChaosResult:
    """Outcome of one :func:`run_with_policy_quarantine` run."""

    seed: int
    policy_name: str
    runtime: str
    fail_mode: str
    stats: VerifierStats
    #: true deadlock pairs seeded after quarantine (fail-open only)
    deadlock_pairs: int
    #: refusals delivered by the Armus fallback (fail-open only)
    deadlocks_avoided: int
    #: joins that raised PolicyQuarantinedError (fail-closed only)
    quarantined_joins: int


def run_with_policy_quarantine(
    seed: int,
    *,
    policy: Union[str, JoinPolicy] = "TJ-SP",
    runtime: str = "threaded",
    fail_mode: str = "open",
) -> QuarantineChaosResult:
    """Crash the policy on its first ``permits`` call and prove degradation.

    The wrapped policy raises :class:`~repro.testing.faults.PolicyBugError`
    on *every* ``permits`` call (``policy_crash_rate=1.0``), so the very
    first join trips the verifier's quarantine.  What must happen next
    depends on ``fail_mode``:

    * ``"open"`` — the run degrades to Armus-only detection.  After a
      sacrificial join trips the quarantine, the program forks three
      genuine deadlock pairs (two tasks joining each other through
      exchanged futures).  The TJ layer is gone — every verdict is a
      blanket permit — yet the Armus fallback must refuse **exactly one**
      join per pair with :class:`~repro.errors.DeadlockAvoidedError`,
      proving the degraded run still catches every true deadlock.
    * ``"closed"`` — after the quarantine trips, every later
      policy-facing call must raise the *stored*
      :class:`~repro.errors.PolicyQuarantinedError` deterministically.
      The program forks four leaves up-front, then counts one
      quarantine error per attempted join.

    Either way the run must end quiescent (:func:`quiescence_violations`).
    """
    if fail_mode not in ("open", "closed"):
        raise ValueError(f"fail_mode must be 'open' or 'closed', got {fail_mode!r}")
    faulty = FaultyPolicy(
        resolve_policy(policy), FaultPlan(seed=seed, policy_crash_rate=1.0)
    )
    # a pool worker for every pair member, plus one for the root
    rt = _make_runtime(
        runtime, faulty, workers=2 * _QUARANTINE_PAIRS + 1, fail_mode=fail_mode
    )
    handles: dict = {}
    futures: dict = {}
    quarantined_joins = 0

    def leaf(label: str) -> None:
        handles[label] = require_current_task()

    def pair_member(label: str, idx: int, box: list, ready: threading.Event) -> str:
        handles[label] = require_current_task()
        ready.wait()
        try:
            box[1 - idx].join()
        except DeadlockAvoidedError:
            return "avoided"
        return "joined"

    def body_open():
        # 1. Trip the quarantine on a harmless join.
        futures["sacrificial"] = rt.fork(leaf, "sacrificial")
        futures["sacrificial"].join()
        if not rt.verifier.quarantined:
            raise ChaosInvariantError(
                f"seed {seed}: sacrificial join did not trip the quarantine"
            )
        # 2. Seed true deadlocks under the degraded verifier.
        outcomes: list[tuple[str, str]] = []
        for k in range(_QUARANTINE_PAIRS):
            box: list = [None, None]
            ready = threading.Event()
            for idx in (0, 1):
                label = f"pair {k}.{idx}"
                box[idx] = futures[label] = rt.fork(pair_member, label, idx, box, ready)
            ready.set()
            outcomes.append((box[0].join(), box[1].join()))
        return outcomes

    def body_closed():
        nonlocal quarantined_joins
        # Fork everything *before* the first join: once quarantined, a
        # fail-closed verifier refuses on_fork too.
        for i in range(_QUARANTINE_LEAVES):
            futures[f"leaf {i}"] = rt.fork(leaf, f"leaf {i}")
        for fut in list(futures.values()):
            try:
                fut.join()
            except PolicyQuarantinedError:
                quarantined_joins += 1
                # a refused join never waited: let the leaf finish unverified
                fut._wait(5.0)
        return quarantined_joins

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PolicyQuarantineWarning)
        outcomes = rt.run(body_open if fail_mode == "open" else body_closed)

    problems: list[str] = []
    stats = rt.verifier.stats
    if not rt.verifier.quarantined:
        problems.append("verifier not quarantined after guaranteed policy crash")
    if stats.policy_faults < 1:
        problems.append(f"policy_faults {stats.policy_faults} < 1")
    detector = rt.detector
    avoided = 0
    if fail_mode == "open":
        avoided = detector.stats.deadlocks_avoided if detector else 0
        if avoided != _QUARANTINE_PAIRS:
            problems.append(
                f"degraded run avoided {avoided} deadlocks, "
                f"expected {_QUARANTINE_PAIRS}"
            )
        for i, pair in enumerate(outcomes):
            if sorted(pair) != ["avoided", "joined"]:
                problems.append(f"pair {i} outcomes {pair}, expected one refusal")
    else:
        if quarantined_joins != _QUARANTINE_LEAVES:
            problems.append(
                f"{quarantined_joins} joins raised PolicyQuarantinedError, "
                f"expected {_QUARANTINE_LEAVES}"
            )
        if stats.policy_faults != 1:
            problems.append(
                f"fail-closed policy_faults {stats.policy_faults} != 1 "
                "(stored error should be re-raised, not re-diagnosed)"
            )
    problems += quiescence_violations(rt, handles, futures)
    if problems:
        raise ChaosInvariantError(
            f"seed {seed} policy {faulty.name} runtime {runtime} "
            f"fail_mode {fail_mode}: " + "; ".join(problems)
        )
    return QuarantineChaosResult(
        seed=seed,
        policy_name=faulty.name,
        runtime=runtime,
        fail_mode=fail_mode,
        stats=stats,
        deadlock_pairs=_QUARANTINE_PAIRS if fail_mode == "open" else 0,
        deadlocks_avoided=avoided,
        quarantined_joins=quarantined_joins,
    )


# ----------------------------------------------------------------------
# multi-process chaos: SIGKILL a worker mid-run, prove nothing diverged
# ----------------------------------------------------------------------
def _procs_leaf(x: int) -> int:
    """A deterministic leaf body (module level: it crosses processes)."""
    return (x * 2654435761 + 97) % 1000003


def _procs_chaos_subtree(rt, base: int, fanout: int) -> int:
    """One dispatched subtree: fork *fanout* leaves, join them all."""
    futs = [rt.fork(_procs_leaf, base + i) for i in range(fanout)]
    return sum(rt.join_batch(futs))


@dataclass
class ProcsChaosResult:
    """Outcome of one :func:`run_procs_divergence` run."""

    seed: int
    workers: int
    #: dispatched subtree count and per-subtree leaf fanout
    dispatches: int
    fanout: int
    #: worker index SIGKILLed mid-run (None when no kill was requested)
    killed_worker: Optional[int]
    worker_deaths: int
    tasks_redispatched: int
    orphan_results: int
    #: merged local/cross/degraded join counts from the procs run
    join_stats: dict
    #: joins rejected in the all-local reference run (must be 0)
    local_rejected: int
    #: joins rejected across all process shards (must be 0)
    procs_rejected: int
    #: (index, local, procs) result triples that disagreed — must be empty
    divergences: list
    #: merged fleet metrics snapshot (None when telemetry was off)
    fleet_metrics: Optional[dict] = None
    #: introspection endpoint URL the run served (None when not requested)
    introspect_url: Optional[str] = None


def run_procs_divergence(
    seed: int,
    *,
    workers: int = 4,
    tasks: int = 2000,
    fanout: int = 20,
    sidecar: Optional[str] = None,
    kill_worker: bool = True,
    check: bool = True,
    introspect: Optional[int] = None,
) -> ProcsChaosResult:
    """SIGKILL a worker mid-run; prove verdicts and results never diverge.

    Runs the same seeded fork-heavy program twice — once all-local on a
    :class:`~repro.runtime.threaded.TaskRuntime` (the reference), once on
    a :class:`~repro.runtime.procs.ProcessRuntime` with *workers* worker
    processes — and compares every subtree result.  When *kill_worker*
    is set, a monitor thread SIGKILLs a seed-chosen worker once a
    seed-chosen fraction of the dispatches has completed, so the kill
    lands mid-workload and strands genuinely in-flight tasks; the
    redispatch path must recover them under fresh vertices without a
    single result or verdict diverging.

    *tasks* is the total leaf count; it is split into ``tasks // fanout``
    dispatched subtrees of *fanout* leaves each.  With a *sidecar*, the
    run also fails unless its cross joins actually reached it — no
    degraded join on a kill-free run, and fewer degraded than cross
    joins on any run — and on any audit the sidecar re-derived
    differently.
    """
    import math
    import os
    import signal
    import time

    from ..runtime.procs import ProcessRuntime

    dispatches = max(1, math.ceil(tasks / fanout))
    rng = random.Random(f"{seed}|procs-chaos")
    bases = [rng.randrange(1 << 20) for _ in range(dispatches)]

    # --- the all-local reference: same shape, same verifier machinery --
    local_rt = TaskRuntime("TJ-SP")

    def local_root():
        futs = [
            local_rt.fork(_procs_chaos_subtree, local_rt, b, fanout)
            for b in bases
        ]
        return local_rt.join_batch(futs)

    local_results = local_rt.run(local_root)
    local_rejected = local_rt.verifier.stats.snapshot()["joins_rejected"]

    # --- the multi-process run, with the seeded kill ------------------
    rt = ProcessRuntime(workers=workers, sidecar=sidecar, introspect=introspect)
    victim_index = rng.randrange(workers) if kill_worker else None
    kill_at = 1 + rng.randrange(max(1, dispatches // 2)) if kill_worker else None
    killed: list[int] = []
    stop_monitor = threading.Event()

    def monitor() -> None:
        while not stop_monitor.wait(0.005):
            if rt.tasks_completed >= kill_at:
                victim = rt._workers[victim_index].proc
                if victim.is_alive():
                    os.kill(victim.pid, signal.SIGKILL)
                    killed.append(victim.pid)
                return

    def procs_root():
        if kill_worker:
            threading.Thread(target=monitor, daemon=True).start()
        futs = [rt.fork(_procs_chaos_subtree, b, fanout) for b in bases]
        return rt.join_batch(futs)

    t0 = time.perf_counter()
    try:
        procs_results = rt.run(procs_root)
    finally:
        stop_monitor.set()
    elapsed = time.perf_counter() - t0

    from .. import obs as _obs_mod

    fleet = rt.fleet_metrics() if _obs_mod.active() is not None else None
    join_stats = rt.join_stats()
    procs_rejected = sum(
        s.get("joins_rejected", 0) for s in rt._worker_stats.values()
    ) + rt.verifier.stats.snapshot()["joins_rejected"]

    divergences = [
        (i, a, b)
        for i, (a, b) in enumerate(zip(local_results, procs_results))
        if a != b
    ]

    problems: list[str] = []
    if divergences:
        problems.append(
            f"{len(divergences)} subtree results diverged: {divergences[:5]}"
        )
    if len(procs_results) != dispatches:
        problems.append(
            f"procs run returned {len(procs_results)} results, "
            f"expected {dispatches}"
        )
    if local_rejected:
        problems.append(f"reference run rejected {local_rejected} joins")
    if procs_rejected:
        problems.append(f"procs run rejected {procs_rejected} joins")
    if kill_worker and not killed:
        problems.append("kill was requested but the victim outlived the run")
    if kill_worker and killed and rt.worker_deaths < 1:
        problems.append("worker was killed but no death was recorded")
    expected_cross = dispatches * fanout
    if not killed and join_stats["cross_joins"] < expected_cross:
        # A SIGKILLed worker takes its unreported stats cells with it, so
        # the exact floor only holds for kill-free runs.
        problems.append(
            f"cross joins {join_stats['cross_joins']} < planned "
            f"{expected_cross}: some subtree joins were never verified"
        )
    if killed and join_stats["cross_joins"] <= 0:
        problems.append("no cross-process joins were ever reported")
    if sidecar is not None:
        # The audits must have reached the sidecar: a dead one leaves
        # every cross join degraded, which stays sound and would
        # otherwise pass unnoticed.
        degraded = join_stats["degraded_joins"]
        if degraded and not killed:
            problems.append(
                f"{degraded} joins degraded on a kill-free run: the sidecar "
                f"{sidecar} was not reached"
            )
        if degraded >= join_stats["cross_joins"]:
            problems.append(
                f"degraded joins {degraded} >= cross joins "
                f"{join_stats['cross_joins']}: no join reached the sidecar {sidecar}"
            )
        if join_stats["audit_mismatches"]:
            problems.append(
                f"{join_stats['audit_mismatches']} audited verdicts disagreed "
                f"with the sidecar {sidecar}"
            )
    if check and problems:
        raise ChaosInvariantError(
            f"seed {seed} procs workers={workers} "
            f"({elapsed:.1f}s): " + "; ".join(problems)
        )
    return ProcsChaosResult(
        seed=seed,
        workers=workers,
        dispatches=dispatches,
        fanout=fanout,
        killed_worker=victim_index if killed else None,
        worker_deaths=rt.worker_deaths,
        tasks_redispatched=rt.tasks_redispatched,
        orphan_results=rt.orphan_results,
        join_stats=join_stats,
        local_rejected=local_rejected,
        procs_rejected=procs_rejected,
        divergences=divergences,
        fleet_metrics=fleet,
        introspect_url=rt.introspect_url,
    )


# ----------------------------------------------------------------------
# the predict loop: lucky journals, counterfactual deadlocks
# ----------------------------------------------------------------------
@dataclass
class PredictChaosResult:
    """What one :func:`run_predict_loop` sweep established."""

    seed: int
    programs: int
    #: journal paths, one per program, in seed order
    journals: list[str] = field(default_factory=list)
    #: (journal path, PredictedDeadlock) for every flagged schedule
    predictions: list[tuple[str, object]] = field(default_factory=list)
    #: programs whose journal was flagged
    flagged_programs: int = 0
    #: flagged programs whose recorded run completed cleanly
    clean_flagged: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def generate_predict_spec(
    seed: int, *, max_children: int = 4, cycle_rate: float = 0.75
) -> tuple[TraceProgram, tuple[tuple[str, ...], ...]]:
    """Derive a predict-corpus program from *seed*, with its planted
    join cycles (empty: a safe program).

    Unlike the chaos programs (deadlock-free by construction), a predict
    program can deadlock, yet its recorded runs complete cleanly.  The
    root forks 2..``max_children`` children (some of which fork a
    grandchild) and joins them all at the end.  With probability
    ``cycle_rate`` a cycle of 2 or 3 siblings is planted — each member
    joins the next around the ring; ring direction ignores sibling age,
    so some edge always violates younger-joins-older (the classic TJ
    denial, making the cycle avoidable under TJ-SP).  Remaining
    children may pick up a *safe* younger-joins-older edge instead.
    """
    rng = random.Random(f"predict-spec|{seed}")
    n_children = rng.randint(2, max(2, max_children))
    children = [_name(i) for i in range(1, n_children + 1)]
    actions: dict[str, list[tuple[str, str]]] = {_name(0): []}
    for c in children:
        actions[c] = []
    # a couple of grandchildren: forked and joined by their parent
    grandchildren: dict[str, str] = {}
    for c in children:
        if rng.random() < 0.4:
            g = grandchildren[c] = _name(len(actions))
            actions[g] = []

    planted: list[tuple[str, ...]] = []
    in_cycle: set[str] = set()
    if len(children) >= 2 and rng.random() < cycle_rate:
        size = rng.choice((2, 3)) if len(children) >= 3 else 2
        ring = rng.sample(children, size)
        planted.append(tuple(ring))
        in_cycle.update(ring)
        for at, member in enumerate(ring):
            actions[member].append(("join", ring[(at + 1) % size]))

    for k, c in enumerate(children):
        if c not in in_cycle and k and rng.random() < 0.5:
            actions[c].append(("join", rng.choice(children[:k])))

    # forks first in every task's program order, then the joins above
    for c, g in grandchildren.items():
        actions[c] = [("fork", g)] + actions[c] + [("join", g)]
    actions[_name(0)] = [("fork", c) for c in children] + [("join", c) for c in children]
    program = TraceProgram(root=_name(0), actions={t: tuple(a) for t, a in actions.items()})
    return program, tuple(planted)


def run_predict_program(
    program: TraceProgram,
    journal_path: str,
    *,
    policy: Union[None, str, JoinPolicy] = None,
    join_timeout: float = 0.1,
) -> SimOutcome:
    """Run a predict-corpus program on the threaded runtime, journalling
    to *journal_path*.

    Every join (including the planted cycles) runs under
    ``default_join_timeout=join_timeout`` with the watchdog off, so a
    closed cycle is rescued by deadlines rather than diagnosed — the
    run completes cleanly and the journal records the
    ``block``/``unblock``-without-``join`` pattern from which the
    predictor (:mod:`repro.predict`) flags the cycle other schedules
    realize.  ``run`` waits for every forked task before it closes the
    journal, so the ``complete`` records are durable.
    """
    return program.run_blocking(
        TaskRuntime(
            policy,
            fallback=True,
            journal=journal_path,
            default_join_timeout=join_timeout,
            watchdog=False,
            on_unjoined_failure="ignore",
        )
    )


def run_predict_loop(
    programs: int = 4,
    *,
    seed: int = 0,
    journal_dir: Optional[str] = None,
    policies: tuple[str, ...] = ("TJ-SP", "KJ-VC"),
    max_schedules: int = 256,
    check: bool = True,
    program_id: Optional[int] = None,
) -> PredictChaosResult:
    """The closed predict → simulate → avoid loop over a seeded corpus.

    For each program: run it journalled under ``policy=None`` (clean,
    timeout-rescued), predict over the journal, then assert the
    three-way invariant for every prediction —

    1. replaying the witness schedule through ``SimRuntime`` under
       ``policy=None`` reproduces the deadlock with the *same* blocked
       cycle;
    2. the same witness under each avoidance policy (TJ-SP, KJ-VC with
       the Armus fallback) never deadlocks — the refusal lands where
       the cycle would have closed;
    3. a program with a planted cycle is flagged, and a journal from a
       clean recorded run yields at least one counterfactual flag
       across the corpus.

    ``program_id`` restricts the sweep to one program index (its seed is
    ``seed + program_id``), which is what the single-line repro command
    printed on a failure uses.
    """
    import os
    import tempfile

    from ..predict import predict_deadlocks

    if journal_dir is None:
        journal_dir = tempfile.mkdtemp(prefix="repro-predict-")
    else:
        os.makedirs(journal_dir, exist_ok=True)
    result = PredictChaosResult(seed=seed, programs=programs)
    todo = [program_id] if program_id is not None else list(range(programs))
    for k in todo:
        program_seed = seed + k
        path = f"{journal_dir}/predict-{program_seed}.jsonl"
        program, planted = generate_predict_spec(program_seed)
        run_predict_program(program, path)
        result.journals.append(path)
        report = predict_deadlocks(
            path, policies=policies, max_schedules=max_schedules
        )
        where = f"program {k} (seed {program_seed})"
        if report.skipped is not None:
            result.violations.append(f"{where}: prediction skipped: {report.skipped}")
            continue
        if planted and not report.flagged:
            result.violations.append(
                f"{where}: planted cycle {planted} was not flagged"
            )
        if not planted and report.flagged:
            result.violations.append(
                f"{where}: cycle-free program was flagged: "
                f"{[p.cycle for p in report.predictions]}"
            )
        if report.flagged:
            result.flagged_programs += 1
            if report.clean_run:
                result.clean_flagged += 1
        for pred in report.predictions:
            result.predictions.append((path, pred))
            # (1) exact reproduction under policy=None
            repro = pred.reproduce()
            if repro.deadlock is None:
                result.violations.append(
                    f"{where}: witness for {pred.cycle} did not deadlock "
                    f"under policy=None (verdict {repro.verdict})"
                )
            elif set(repro.deadlock) != set(pred.cycle):
                result.violations.append(
                    f"{where}: witness realized cycle {repro.deadlock}, "
                    f"predicted {pred.cycle}"
                )
            # (2) avoided under every policy along the same witness
            for policy in policies:
                replay = pred.program.run_sim(
                    policy, fallback=True, schedule=pred.schedule
                )
                if replay.deadlock is not None:
                    result.violations.append(
                        f"{where}: {policy} deadlocked on the witness "
                        f"for {pred.cycle}: {replay.deadlock}"
                    )
                if pred.verdicts.get(policy) != replay.verdict:
                    result.violations.append(
                        f"{where}: {policy} verdict drifted between "
                        f"prediction ({pred.verdicts.get(policy)}) and "
                        f"replay ({replay.verdict})"
                    )
    if program_id is None and not any(
        "clean" in v for v in result.violations
    ) and result.flagged_programs and not result.clean_flagged:
        result.violations.append(
            "no flagged journal came from a clean recorded run"
        )
    if check and result.violations:
        raise ChaosInvariantError(
            f"predict loop seed {seed}: " + "; ".join(result.violations)
        )
    return result


def repro_command(kind: str, seed: int, program_id: Optional[int] = None, **flags) -> str:
    """The single-line command that reproduces one failing chaos slice.

    ``kind`` is the chaos sub-mode (``""`` for the plain sweep,
    ``"--recovery"``, ``"--predict"``, ...); extra flags are rendered as
    ``--flag value`` with underscores dashed.  Printed by the CLI on
    the first failure so a red run is reproducible without scraping
    pytest output.
    """
    parts = ["repro chaos"]
    if kind:
        parts.append(kind)
    parts.append(f"--seed {seed}")
    if program_id is not None:
        parts.append(f"--program-id {program_id}")
    for flag, value in flags.items():
        if value is None or value is False:
            continue
        name = "--" + flag.replace("_", "-")
        parts.append(name if value is True else f"{name} {value}")
    return " ".join(parts)
