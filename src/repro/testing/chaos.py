"""Seeded random fork/join programs with invariant checking.

:func:`generate_spec` derives a whole program — task tree, join
schedule, crash sites — from one integer seed, so a chaos failure is
reproducible from its seed alone.  Programs are **deadlock-free by
construction**:

* every parent joins all of its children (so the tree quiesces);
* a task may additionally join an *older* sibling — the waits-on
  relation among siblings strictly decreases the sibling index, so no
  sibling cycle can form (and younger-joins-older is TJ-valid; the
  reverse direction is the classic TJ violation);
* a task may join a *grandchild*, but only after joining the child that
  forked it (a transitive join: TJ-valid, yet flagged by several KJ
  policies — which is exactly how the suite exercises the Armus
  false-positive path under load).

Injected crashes fire *after* a task has performed all of its joins, so
a crashed task never abandons children; every crash is observed by the
parent's join as :class:`~repro.errors.TaskFailedError` and swallowed by
the harness, which records it.

:func:`run_chaos_program` is the one runner of a :class:`ChaosSpec`.  It
also injects what its :class:`FaultPlan` schedules — delays, and
``permits`` faults at ``verifier_fault_rate`` (each faulted join is
retried) — and, with ``fail_attempts``, flaky leaves that a retry
policy re-runs to success.  After the run it checks (raising
:class:`ChaosInvariantError` on any violation) that the runtime
quiesced (:func:`quiescence_violations`), that the accounting is exact
(``forks == n_tasks + retries``, ``joins_checked == attempts - faults
== total_joins``), that no join was refused, and that the observed
failures equal the planned crash set.

For ``stable_permits`` policies the result also carries the post-hoc
permission verdict of every join edge (queried directly from the policy,
which is side-effect free), so callers can assert the verdict stream is
identical with and without injected delays.

The quarantine, procs and predict runners drive programs that are not
ChaosSpecs — deadlock pairs under a crashing policy, dispatched
subtrees on worker processes, planted cycles.  The sweep,
verifier-fault, retry and quarantine slices build their runtimes with
:func:`_make_runtime` and end with :func:`quiescence_violations`.
"""

from __future__ import annotations

import random
import threading
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..core.policy import JoinPolicy
from ..core.verifier import VerifierStats
from ..errors import (
    DeadlockAvoidedError,
    InjectedFaultError,
    PolicyQuarantinedError,
    PolicyQuarantineWarning,
    TaskFailedError,
)
from ..runtime.context import require_current_task
from ..runtime.pool import WorkSharingRuntime
from ..runtime.retry import RetryPolicy
from ..runtime.task import TaskState
from ..runtime.threaded import TaskRuntime, resolve_policy
from .faults import FaultPlan, FaultyPolicy

__all__ = [
    "ChaosInvariantError",
    "ChaosResult",
    "ChaosSpec",
    "ProcsChaosResult",
    "QuarantineChaosResult",
    "PredictChaosResult",
    "PredictSpec",
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

#: a join a verifier fault aborted is retried at most this often
_MAX_FAULT_RETRIES = 50
#: share of the join-free leaves a ``fail_attempts`` run makes flaky
_FLAKY_RATE = 0.6
#: true deadlock pairs a fail-open quarantine run seeds
_QUARANTINE_PAIRS = 3
#: leaves a fail-closed quarantine run forks and joins
_QUARANTINE_LEAVES = 4


class ChaosInvariantError(AssertionError):
    """A supervised-runtime invariant did not hold after a chaos run."""


@dataclass(frozen=True)
class ChaosSpec:
    """A fully determined chaos program (everything derives from the seed)."""

    seed: int
    n_tasks: int
    #: task id -> ids of the children it forks (ascending)
    children: dict[int, tuple[int, ...]]
    #: task id -> older siblings it joins before joining its children
    sibling_joins: dict[int, tuple[int, ...]]
    #: task id -> grandchildren it joins after joining its children
    grandchild_joins: dict[int, tuple[int, ...]]
    #: parents that join their children via ``join_batch``
    batch_parents: frozenset[int]
    #: tasks that raise InjectedFaultError after completing their joins
    crash_tasks: frozenset[int]

    @property
    def total_joins(self) -> int:
        """Join checks the program performs (== expected ``joins_checked``)."""
        return sum(
            len(self.children.get(t, ()))
            + len(self.sibling_joins.get(t, ()))
            + len(self.grandchild_joins.get(t, ()))
            for t in range(self.n_tasks)
        )

    def join_edges(self) -> list[tuple[int, int]]:
        """Every (joiner, joinee) pair, in a deterministic order."""
        edges: list[tuple[int, int]] = []
        for t in range(self.n_tasks):
            for s in self.sibling_joins.get(t, ()):
                edges.append((t, s))
            for c in self.children.get(t, ()):
                edges.append((t, c))
            for g in self.grandchild_joins.get(t, ()):
                edges.append((t, g))
        return edges


@dataclass
class ChaosResult:
    """What one chaos run produced (after passing the invariant checks)."""

    spec: ChaosSpec
    policy_name: str
    runtime: str
    stats: VerifierStats
    #: (joiner, joinee) -> permitted?  Only for stable_permits policies.
    verdicts: Optional[dict[tuple[int, int], bool]]
    #: task ids whose failure was observed at a join
    failures_observed: frozenset[int]
    false_positives: int = 0
    deadlocks_avoided: int = 0
    #: leaves forked with a retry policy (each fails ``fail_attempts`` times)
    flaky_tasks: frozenset[int] = frozenset()
    #: re-forks the supervisor performed
    retries: int = 0
    #: join attempts a verifier fault aborted (each one was retried)
    faults: int = 0
    violations: list[str] = field(default_factory=list)
    #: joins that ran their still-queued joinee inline (the pool only)
    inline_joins: int = 0


def generate_spec(seed: int, *, max_tasks: int = 12, crash_rate: float = 0.0) -> ChaosSpec:
    """Derive a deadlock-free program spec from *seed*."""
    if max_tasks < 3:
        raise ValueError("max_tasks must be at least 3")
    rng = random.Random(f"chaos-spec|{seed}")
    n = rng.randint(3, max_tasks)
    parent: dict[int, int] = {i: rng.randrange(0, i) for i in range(1, n)}
    children: dict[int, list[int]] = {t: [] for t in range(n)}
    for i in range(1, n):
        children[parent[i]].append(i)

    sibling_joins: dict[int, list[int]] = {}
    for i in range(1, n):
        older = [j for j in children[parent[i]] if j < i]
        if older and rng.random() < 0.35:
            sibling_joins.setdefault(i, []).append(rng.choice(older))

    grandchild_joins: dict[int, list[int]] = {}
    for t in range(n):
        for c in children[t]:
            for g in children[c]:
                if rng.random() < 0.3:
                    grandchild_joins.setdefault(t, []).append(g)

    batch_parents = frozenset(
        t for t in range(n) if len(children[t]) >= 2 and rng.random() < 0.5
    )
    crash_tasks = frozenset(
        i for i in range(1, n) if crash_rate > 0.0 and rng.random() < crash_rate
    )
    return ChaosSpec(
        seed=seed,
        n_tasks=n,
        children={t: tuple(c) for t, c in children.items()},
        sibling_joins={t: tuple(s) for t, s in sibling_joins.items()},
        grandchild_joins={t: tuple(g) for t, g in grandchild_joins.items()},
        batch_parents=batch_parents,
        crash_tasks=crash_tasks,
    )


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


@dataclass
class _Walk:
    """What one execution of a ChaosSpec left behind."""

    #: task id -> TaskHandle of its last run
    handles: dict = field(default_factory=dict)
    #: task id -> Future (the root has none)
    futures: dict = field(default_factory=dict)
    #: task ids whose failure surfaced at some join
    observed: set = field(default_factory=set)
    #: join calls made, faulted ones included
    attempts: int = 0
    #: join calls a verifier fault aborted
    faults: int = 0
    #: flaky task id -> body runs
    runs: dict = field(default_factory=dict)


def _walk(
    spec: ChaosSpec,
    rt,
    plan: FaultPlan,
    flaky: frozenset[int] = frozenset(),
    fail_attempts: int = 0,
) -> _Walk:
    """Execute *spec* on runtime *rt*: the one walk every slice shares.

    A join that raises :class:`InjectedFaultError` (a verifier fault,
    recorded before any statistic or edge) is retried; each retry is a
    fresh fault site.  Tasks in *flaky* are forked with a retry policy
    and fail their first *fail_attempts* runs.
    """
    walk = _Walk()
    guard = threading.Lock()
    retry = None
    if flaky:
        retry = RetryPolicy(
            max_attempts=fail_attempts + 1, base_delay=0.0005, max_delay=0.002,
            seed=spec.seed,
        )

    def join(tid: int, target: int) -> None:
        plan.sleep(("pre-join", tid, target))
        for _ in range(_MAX_FAULT_RETRIES):
            with guard:
                walk.attempts += 1
            try:
                walk.futures[target].join()
                return
            except InjectedFaultError:
                with guard:
                    walk.faults += 1
            except TaskFailedError:
                with guard:
                    walk.observed.add(target)
                return
        raise ChaosInvariantError(
            f"join {tid}->{target} still faulting after {_MAX_FAULT_RETRIES} "
            f"retries (seed {spec.seed})"
        )

    def body(tid: int):
        walk.handles[tid] = require_current_task()
        plan.sleep(("start", tid))
        kids = spec.children.get(tid, ())
        for cid in kids:
            walk.futures[cid] = rt.fork(body, cid, retry=retry if cid in flaky else None)
        for sib in spec.sibling_joins.get(tid, ()):
            join(tid, sib)
        if tid in spec.batch_parents:
            outcomes = rt.join_batch(
                [walk.futures[c] for c in kids], return_exceptions=True
            )
            with guard:
                walk.attempts += len(kids)
                walk.observed.update(
                    c for c, o in zip(kids, outcomes) if isinstance(o, TaskFailedError)
                )
        else:
            for c in kids:
                join(tid, c)
        for g in spec.grandchild_joins.get(tid, ()):
            join(tid, g)
        if tid in flaky:
            with guard:
                walk.runs[tid] = run = walk.runs.get(tid, 0) + 1
            if run <= fail_attempts:
                raise RuntimeError(f"flaky task {tid} attempt {run}")
        if tid in spec.crash_tasks:
            raise InjectedFaultError(site=("task", tid))
        return tid

    rt.run(body, 0)
    return walk


def _flaky_leaves(spec: ChaosSpec) -> tuple[ChaosSpec, frozenset[int]]:
    """Pick the seeded flaky tasks among the join-free leaves.

    A join-free leaf (no children, no sibling joins) forks and joins
    nothing, so re-running its body cannot change the join accounting.
    When every leaf joins a sibling, the youngest leaf is freed of its
    sibling joins so that one candidate exists.
    """
    leaves = [t for t in range(1, spec.n_tasks) if not spec.children.get(t)]
    eligible = [t for t in leaves if not spec.sibling_joins.get(t)]
    if not eligible:
        victim = leaves[-1]
        spec = replace(
            spec,
            sibling_joins={t: s for t, s in spec.sibling_joins.items() if t != victim},
        )
        eligible = [victim]
    rng = random.Random(f"chaos-retry|{spec.seed}")
    n_flaky = max(1, round(len(eligible) * _FLAKY_RATE))
    return spec, frozenset(rng.sample(eligible, n_flaky))


def run_chaos_program(
    spec_or_seed: Union[int, ChaosSpec],
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
    statistic and no waits-for edge, so the runner retries the join; it
    then also joins one at a time, since a fault inside a batch
    ``check_joins`` would discard the whole batch's accounting.  With
    *fail_attempts*, a seeded share of the join-free leaves fails that
    many times before its retry policy re-runs it to success.

    With ``check=True`` (default) any violated invariant raises
    :class:`ChaosInvariantError`; with ``check=False`` violations are
    collected into ``result.violations`` instead (the CLI uses this to
    report all of them).
    """
    if isinstance(spec_or_seed, ChaosSpec):
        spec = spec_or_seed
    else:
        spec = generate_spec(spec_or_seed, max_tasks=max_tasks, crash_rate=crash_rate)
    if plan is None:
        plan = FaultPlan(seed=spec.seed)
    inner = resolve_policy(policy)
    faulty = None
    if plan.verifier_fault_rate > 0:
        spec = replace(spec, batch_parents=frozenset())
        faulty = FaultyPolicy(inner, plan)
    flaky: frozenset[int] = frozenset()
    if fail_attempts:
        spec, flaky = _flaky_leaves(spec)
    rt = _make_runtime(runtime, faulty or inner)
    walk = _walk(spec, rt, plan, flaky, fail_attempts)

    stats = rt.verifier.stats
    detector = rt.detector
    retries = fail_attempts * len(flaky)
    joined = walk.attempts - walk.faults
    injected = faulty.faults_injected if faulty else 0
    runs = {tid: walk.runs.get(tid, 0) for tid in sorted(flaky)}
    checks = [
        (set(walk.futures) == set(range(1, spec.n_tasks)),
         f"expected futures for tasks 1..{spec.n_tasks - 1}, got {sorted(walk.futures)}"),
        (not detector or detector.stats.deadlocks_avoided == 0,
         "deadlock-free program had a join refused"),
        (rt.tasks_retried == retries,
         f"tasks_retried {rt.tasks_retried} != expected {retries}"),
        (stats.forks == spec.n_tasks + retries,
         f"forks {stats.forks} != n_tasks + retries {spec.n_tasks + retries}"),
        (stats.joins_checked == joined,
         f"joins_checked {stats.joins_checked} != attempts - faults {joined}"),
        (joined == spec.total_joins,
         f"successful joins {joined} != planned {spec.total_joins}"),
        (walk.faults == injected,
         f"harness saw {walk.faults} faults, policy injected {injected}"),
        (all(n == fail_attempts + 1 for n in runs.values()),
         f"flaky task runs {runs}, expected {fail_attempts + 1} each"),
        (walk.observed == set(spec.crash_tasks),
         f"observed failures {sorted(walk.observed)} != planned "
         f"{sorted(spec.crash_tasks)}"),
    ]
    violations = quiescence_violations(rt, walk.handles, walk.futures)
    violations += [message for ok, message in checks if not ok]

    verdicts: Optional[dict[tuple[int, int], bool]] = None
    if inner.stable_permits and not violations:
        verdicts = {
            (a, b): inner.permits(walk.handles[a].vertex, walk.handles[b].vertex)
            for a, b in spec.join_edges()
        }

    policy_name = rt.policy.name
    if check and violations:
        raise ChaosInvariantError(
            f"seed {spec.seed} policy {policy_name} runtime {runtime}: "
            + "; ".join(violations)
        )
    return ChaosResult(
        spec=spec,
        policy_name=policy_name,
        runtime=runtime,
        stats=stats,
        verdicts=verdicts,
        failures_observed=frozenset(walk.observed),
        false_positives=detector.stats.false_positives if detector else 0,
        deadlocks_avoided=detector.stats.deadlocks_avoided if detector else 0,
        flaky_tasks=flaky,
        retries=rt.tasks_retried,
        faults=walk.faults,
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
@dataclass(frozen=True)
class PredictSpec:
    """A seeded fork/join program that *can* deadlock — but whose
    recorded runs complete cleanly.

    Unlike :class:`ChaosSpec` (deadlock-free by construction), a
    predict spec deliberately plants conflicting-direction join intents
    (sibling cycles).  :func:`run_predict_program` executes it under a
    small ``default_join_timeout``: on schedules where a cycle closes,
    the deadline rescues the blocked joins and every task still
    terminates — leaving a journal of a *clean* run whose
    ``block``/``unblock``-without-``join`` pattern is exactly what the
    predictor (:mod:`repro.predict`) needs to flag the cycle other
    schedules realize.
    """

    seed: int
    #: task id -> its actions in program order, mirroring
    #: :class:`repro.predict.TraceProgram` (root is task 0)
    actions: dict[int, tuple[tuple[str, int], ...]]
    #: the planted join cycles, as task-id tuples (empty: a safe spec)
    planted_cycles: tuple[tuple[int, ...], ...]

    @property
    def n_tasks(self) -> int:
        return len(self.actions)

    @property
    def has_cycle(self) -> bool:
        return bool(self.planted_cycles)


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
) -> PredictSpec:
    """Derive a predict-corpus program from *seed*.

    The root forks 2..``max_children`` children (some of which fork a
    grandchild) and joins them all at the end.  With probability
    ``cycle_rate`` a cycle of 2 or 3 siblings is planted — each member
    joins the next around the ring; ring direction ignores sibling age,
    so some edge always violates younger-joins-older (the classic TJ
    denial, making the cycle avoidable under TJ-SP).  Remaining
    children may pick up a *safe* younger-joins-older edge instead.
    """
    rng = random.Random(f"predict-spec|{seed}")
    n_children = rng.randint(2, max(2, max_children))
    children = list(range(1, n_children + 1))
    next_id = n_children + 1
    actions: dict[int, list[tuple[str, int]]] = {0: []}
    for c in children:
        actions[c] = []
    # a couple of grandchildren: forked and joined by their parent
    grandchildren: dict[int, int] = {}
    for c in children:
        if rng.random() < 0.4:
            g = next_id
            next_id += 1
            grandchildren[c] = g
            actions[g] = []

    planted: list[tuple[int, ...]] = []
    in_cycle: set[int] = set()
    if len(children) >= 2 and rng.random() < cycle_rate:
        size = rng.choice((2, 3)) if len(children) >= 3 else 2
        ring = rng.sample(children, size)
        planted.append(tuple(ring))
        in_cycle.update(ring)
        for at, member in enumerate(ring):
            actions[member].append(("join", ring[(at + 1) % size]))

    for c in children:
        if c not in in_cycle:
            older = [s for s in children if s < c]
            if older and rng.random() < 0.5:
                actions[c].append(("join", rng.choice(older)))

    # forks first in every task's program order, then the joins above
    for c in children:
        if c in grandchildren:
            g = grandchildren[c]
            actions[c] = [("fork", g)] + actions[c] + [("join", g)]
    actions[0] = [("fork", c) for c in children] + [("join", c) for c in children]
    return PredictSpec(
        seed=seed,
        actions={t: tuple(a) for t, a in actions.items()},
        planted_cycles=tuple(planted),
    )


def run_predict_program(
    spec_or_seed: Union[int, PredictSpec],
    journal_path: str,
    *,
    policy: Union[None, str, JoinPolicy] = None,
    join_timeout: float = 0.1,
) -> PredictSpec:
    """Execute a predict spec on the threaded runtime, journalling to
    *journal_path*.

    Every join (including the planted cycles) runs under
    ``default_join_timeout=join_timeout`` with the watchdog off, so a
    closed cycle is rescued by deadlines rather than diagnosed — the
    run completes cleanly and the journal records the block/unblock
    pattern.  ``run`` waits for every forked task before it closes the
    journal, so the ``complete`` records are durable.
    """
    from ..predict import TraceProgram

    spec = (
        spec_or_seed
        if isinstance(spec_or_seed, PredictSpec)
        else generate_predict_spec(spec_or_seed)
    )
    program = TraceProgram(
        root="0",
        actions={
            str(t): tuple((kind, str(target)) for kind, target in acts)
            for t, acts in spec.actions.items()
        },
    )
    program.run_blocking(
        TaskRuntime(
            policy,
            fallback=True,
            journal=journal_path,
            default_join_timeout=join_timeout,
            watchdog=False,
            on_unjoined_failure="ignore",
        )
    )
    return spec


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
        spec = run_predict_program(program_seed, path)
        result.journals.append(path)
        report = predict_deadlocks(
            path, policies=policies, max_schedules=max_schedules
        )
        where = f"program {k} (seed {program_seed})"
        if report.skipped is not None:
            result.violations.append(f"{where}: prediction skipped: {report.skipped}")
            continue
        if spec.has_cycle and not report.flagged:
            result.violations.append(
                f"{where}: planted cycle {spec.planted_cycles} was not flagged"
            )
        if not spec.has_cycle and report.flagged:
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
