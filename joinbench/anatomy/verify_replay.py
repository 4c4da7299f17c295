"""verify-replay: a seeded fork/join stream replayed through the verifier.

The benchmark makes, event by event, the calls a runtime or a sidecar
session makes: ``HybridVerifier.on_fork`` for forks,
``HybridVerifier.begin_join``/``end_join``/``on_join_completed`` for
joins, and ``Verifier.check_joins`` for batch drains.  No threads, no
I/O: the policy kernel, its verdict cache and the Armus fallback do
almost all the work.

A round of the stream is a fork phase (writes) and a join phase (reads):

* fork: a family of siblings under a random existing task (bushy
  fan-out) and a deep chain under one of the younger siblings;
* join: TJ-permitted singles (later sibling joins older, ancestor joins
  chain descendant, chain descendant joins its branch's older siblings),
  a drain of the whole family, barrier re-joins of hot batches (verdict
  cache hits), fresh batches (misses, and evictions once the cache
  fills), then the chain blocks parent-on-child and two older siblings
  join the chain's head while it is pending: TJ flags those joins, they
  are safe, and Armus runs its cycle search down the blocked chain.

Every join carries the verdict its construction implies; the checked
replay compares all of them, and a seeded sample against the formal
TJ order (:class:`repro.formal.TJOrderOracle`, Thm 3.17).
"""

from __future__ import annotations

import gc
import os
import random
import time
import tracemalloc
from dataclasses import dataclass, field

from repro import obs
from repro.armus.hybrid import HybridVerifier
from repro.core.policy import make_policy
from repro.errors import DeadlockAvoidedError
from repro.formal.actions import Fork, Init
from repro.formal.tj_relation import TJOrderOracle

from .common import (
    alternate,
    hist_quantile,
    median,
    per_layer_defaults,
    percentiles,
    quantile,
    registry_histogram,
)
from .spans import SpanRecorder, TracedPolicy, self_time_table

FORK, JOIN, BATCH, BLOCK, PEND, RELEASE = range(6)

#: stream shape at full size (~160k verifier calls) and for smoke tests
FULL = {"rounds": 600, "family": 32, "chain": 16}
SMOKE = {"rounds": 12, "family": 12, "chain": 6}

#: sampled joins checked against the formal TJ order per run
ORACLE_SAMPLE = 200


@dataclass
class Stream:
    ops: list = field(default_factory=list)
    #: parent task of each task (-1 for the root, task 0)
    parents: list = field(default_factory=lambda: [-1])
    #: every join with the verdict its construction implies
    labelled: list = field(default_factory=list)
    flagged: int = 0
    joins: int = 0


def generate(seed: int, rounds: int, family: int, chain: int) -> Stream:
    """The seeded event stream; the same arguments give the same stream."""
    rng = random.Random(seed)
    s = Stream()
    ops, parents, labelled = s.ops, s.parents, s.labelled
    hot: list[tuple] = []

    def fork(parent: int) -> int:
        parents.append(parent)
        ops.append((FORK, parent))
        return len(parents) - 1

    def join(kind: int, a: int, b: int, ok: bool) -> None:
        ops.append((kind, a, b))
        labelled.append((a, b, ok))

    def batch(a: int, bs: tuple) -> None:
        ops.append((BATCH, a, bs))
        labelled.extend((a, b, True) for b in bs)

    for _ in range(rounds):
        anchor = rng.randrange(len(parents))
        kids = [fork(anchor) for _ in range(family)]
        head = rng.randrange(family // 2, family)
        path = [kids[head]]
        for _ in range(chain):
            path.append(fork(path[-1]))

        for _ in range(family + family // 2):  # later sibling joins older
            a, b = sorted(rng.sample(range(family), 2))
            join(JOIN, kids[b], kids[a], True)
        for _ in range(chain + chain // 2):  # ancestor joins chain descendant
            i, k = sorted(rng.sample(range(len(path)), 2))
            join(JOIN, path[i], path[k], True)
        for _ in range(chain):  # chain descendant joins an older sibling
            join(JOIN, rng.choice(path[1:]), kids[rng.randrange(head)], True)
        batch(anchor, tuple(kids))  # finish-style drain of the family
        hot.append((anchor, tuple(rng.sample(kids, 8))))
        for _ in range(3):  # barrier re-joins: verdict-cache hits
            batch(*hot[rng.randrange(len(hot))])
        for _ in range(6):  # fresh pairs: cache misses
            b = rng.randrange(4, family)
            batch(kids[b], tuple(kids[a] for a in sorted(rng.sample(range(b), 4))))
        for i in range(chain):  # the chain blocks, parent on child
            join(BLOCK, path[i], path[i + 1], True)
        for a in rng.sample(range(head), 2):  # flagged but safe: Armus
            join(PEND, kids[a], kids[head], False)
            s.flagged += 1
        ops.append((RELEASE,))
    s.joins = len(labelled)
    return s


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def api_of(hv: HybridVerifier, rec: "SpanRecorder | None" = None) -> tuple:
    """The five calls the replay makes, span-wrapped when *rec* is given."""
    calls = (
        ("core.on_fork", hv.on_fork),
        ("armus.begin_join", hv.begin_join),
        ("armus.end_join", hv.end_join),
        ("core.on_join_completed", hv.on_join_completed),
        ("core.check_joins", hv.verifier.check_joins),
    )
    if rec is None:
        return tuple(fn for _, fn in calls)
    return tuple(rec.call(name, fn) for name, fn in calls)


def replay(stream: Stream, hv: HybridVerifier, api: tuple) -> int:
    """Drive *hv* through the stream; returns DeadlockAvoidedErrors seen
    (0 on a correct run: no join in the stream closes a cycle)."""
    on_fork, begin, end, done, check_joins = api
    v = [hv.on_init()]
    push = v.append
    live: list = []
    avoided = 0
    for op in stream.ops:
        kind = op[0]
        if kind == FORK:
            push(on_fork(v[op[1]]))
        elif kind == JOIN:
            a, b = op[1], op[2]
            va, vb = v[a], v[b]
            begin(a, b, va, vb, joinee_done=True)
            done(va, vb)
        elif kind == BATCH:
            a, bs = op[1], op[2]
            va = v[a]
            vs = [v[b] for b in bs]
            for b, vb, ok in zip(bs, vs, check_joins(va, vs)):
                begin(a, b, va, vb, joinee_done=True, flagged=not ok)
                done(va, vb)
        elif kind == BLOCK:
            a, b = op[1], op[2]
            begin(a, b, v[a], v[b], joinee_done=False)
            live.append((a, b))
        elif kind == PEND:
            a, b = op[1], op[2]
            try:
                begin(a, b, v[a], v[b], joinee_done=False)
            except DeadlockAvoidedError:
                avoided += 1
                continue
            end(a, b)
            done(v[a], v[b])
        else:
            for a, b in live:
                end(a, b)
                done(v[a], v[b])
            live.clear()
    return avoided


def _pass(stream: Stream, policy_name: str, rec: "SpanRecorder | None" = None):
    """One timed pass on a fresh verifier: (seconds, hybrid, policy, avoided)."""
    gc.collect()
    t0 = time.perf_counter()
    if rec is not None:
        rec.begin("bench.replay")
    policy = make_policy(policy_name)
    if rec is not None:
        policy = TracedPolicy(policy, rec)
    hv = HybridVerifier(policy)
    avoided = replay(stream, hv, api_of(hv, rec))
    if rec is not None:
        rec.end()
    return time.perf_counter() - t0, hv, policy, avoided


def _peak_mb(stream: Stream, policy_name: str) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        _pass(stream, policy_name)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def check_verdicts(stream: Stream, seed: int, ledger) -> None:
    """Every labelled verdict on a bare TJ-SP policy, then a seeded
    sample against the formal TJ order restricted to the sample's
    ancestors (removing whole subtrees leaves the order of the rest
    unchanged, so the restriction is exact)."""
    policy = make_policy("TJ-SP")
    v = [policy.add_child(None)]
    for op in stream.ops:
        if op[0] == FORK:
            v.append(policy.add_child(v[op[1]]))
    bad = sum(1 for a, b, ok in stream.labelled if policy.permits(v[a], v[b]) != ok)
    ledger.ops(len(stream.labelled), bad, "verify-replay verdicts vs construction labels")

    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(stream.labelled, min(ORACLE_SAMPLE, len(stream.labelled)))
    keep = set()
    for a, b, _ in sample:
        for t in (a, b):
            while t >= 0 and t not in keep:
                keep.add(t)
                t = stream.parents[t]
    trace = [Init(0)] + [Fork(stream.parents[t], t) for t in sorted(keep) if t]
    oracle = TJOrderOracle.from_trace(trace)
    bad = sum(
        1 for a, b, _ in sample if policy.permits(v[a], v[b]) != (a != b and oracle.less(a, b))
    )
    ledger.ops(len(sample), bad, "verify-replay verdicts vs TJOrderOracle (Thm 3.17)")


def check_pass(stream: Stream, hv: HybridVerifier, avoided: int, ledger) -> None:
    """The replayed pass took the path the workload claims."""
    st, det = hv.verifier.stats, hv.detector.stats
    ledger.check(avoided == 0 and det.deadlocks_avoided == 0, "verify-replay: no DeadlockAvoidedError")
    ledger.check(st.joins_checked == stream.joins, "verify-replay: every join verified")
    ledger.check(st.joins_rejected == stream.flagged, "verify-replay: TJ flags exactly the seeded joins")
    ledger.check(det.false_positives == stream.flagged, "verify-replay: flagged joins are Armus false positives")
    ledger.check(det.cycle_checks > 0, "verify-replay: armus.cycle_checks > 0")


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(ctx) -> dict:
    shape = SMOKE if ctx.smoke else FULL
    setups = []
    for _ in range(ctx.setup_reps):
        t0 = time.perf_counter()
        gc.unfreeze()
        stream = generate(ctx.seed, **shape)
        # the stream lives for the whole run: keep the cyclic collector
        # from re-scanning it during every timed pass
        gc.freeze()
        _, hv, policy, avoided = _pass(stream, "TJ-SP")  # warm-up, both arms
        _pass(stream, "none")
        setups.append(time.perf_counter() - t0)
    ctx.check_backend(policy)
    ctx.log(f"stream: {len(stream.ops)} events, {stream.joins} joins, "
            f"{stream.flagged} flagged, {len(stream.parents)} tasks")
    return _traced(ctx, stream) if ctx.trace else _untraced(ctx, stream, setups)


def _untraced(ctx, stream: Stream, setups: list) -> dict:
    last = {}

    def verified() -> float:
        dt, last["hv"], last["policy"], last["avoided"] = _pass(stream, "TJ-SP")
        return dt

    tj, base = alternate([verified, lambda: _pass(stream, "none")[0]], ctx.seconds)
    peak_tj, peak_base = _peak_mb(stream, "TJ-SP"), _peak_mb(stream, "none")
    check_pass(stream, last["hv"], last["avoided"], ctx.ledger)
    check_verdicts(stream, ctx.seed, ctx.ledger)
    wall = median(tj)
    ctx.log(f"passes: {len(tj)} verified, {len(base)} unverified; wall_s {wall:.4f}, "
            f"joins_per_s {last['hv'].verifier.stats.joins_checked / wall:.0f}, "
            f"IQR/median {(quantile(tj, .75) - quantile(tj, .25)) / wall:.3f}")
    return {
        "setup_s": ctx.setup_base + median(setups),
        "overhead_x": wall / median(base),
        "peak_alloc_mb": peak_tj,
        "mem_overhead_x": peak_tj / peak_base,
    }


def _traced(ctx, stream: Stream) -> dict:
    rec = SpanRecorder(keep=ctx.keep_spans)
    proxies = []
    last = {}

    def traced_pass() -> float:
        dt, last["hv"], policy, last["avoided"] = _pass(stream, "TJ-SP", rec)
        proxies.append(policy)
        return dt

    def untraced_pass() -> float:
        with obs.using(None):
            return _pass(stream, "TJ-SP")[0]

    with obs.enabled(tracing=False) as tel:
        untraced, traced = alternate([untraced_pass, traced_pass], ctx.seconds)
        snap = tel.snapshot()
    hv, avoided, policy = last["hv"], last["avoided"], proxies[-1]
    check_pass(stream, hv, avoided, ctx.ledger)
    check_verdicts(stream, ctx.seed, ctx.ledger)

    # the pure-Python kernel on the same stream
    py_rec = SpanRecorder()
    prior = os.environ.get("REPRO_TJ_BACKEND")
    os.environ["REPRO_TJ_BACKEND"] = "py"
    try:
        _, _, py_policy, _ = _pass(stream, "TJ-SP", py_rec)
    finally:
        if prior is None:
            del os.environ["REPRO_TJ_BACKEND"]
        else:
            os.environ["REPRO_TJ_BACKEND"] = prior
    ctx.ledger.check(py_policy.backend == "py", "verify-replay: py kernel pass ran the py kernel")

    n = len(traced)
    wall_ns = sum(rec.durations("bench.replay"))
    self_ns = rec.self_ns()
    layer_ns = {layer: self_ns.get(layer, 0) for layer in ("core", "armus")}
    remainder = self_ns.get("bench", 0)
    st, det = hv.verifier.stats, hv.detector.stats
    cache = policy.cache_stats()
    batch_calls = policy.batch_calls
    misses = cache["batch_entries"] + cache["evictions"]
    batch_ns = sum(rec.durations("core.permits_many"))
    m = per_layer_defaults()
    m.update(percentiles("core.fork_ns", rec.durations("core.add_child")))
    m.update(percentiles("core.check_ns", rec.durations("core.permits")))
    m.update(percentiles("armus.begin_join_ns", rec.self_durations("armus.begin_join")))
    cycle = registry_histogram(snap, "repro_armus_cycle_check_ns")
    m.update({
        "wall_s": median(untraced),
        "joins_per_s": st.joins_checked / median(untraced),
        "core.batch_ns_per_join": batch_ns / max(1, sum(p.batch_joins for p in proxies)),
        "core.self_s": layer_ns["core"] / n / 1e9,
        "core.share": layer_ns["core"] / wall_ns,
        "core.forks": st.forks,
        "core.joins_checked": st.joins_checked,
        "core.flag_ratio": st.joins_rejected / st.joins_checked,
        "core.cache_hit_ratio": (batch_calls - misses) / batch_calls,
        "core.cache_evictions": cache["evictions"],
        "core.space_units": policy.space_units(),
        "core.py.check_ns.p50": quantile(py_rec.durations("core.permits"), 0.5),
        "armus.cycle_check_ns.p50": hist_quantile(cycle, 0.5),
        "armus.cycle_check_ns.p99": hist_quantile(cycle, 0.99),
        "armus.cycle_checks": det.cycle_checks,
        "armus.false_positives": det.false_positives,
        "armus.deadlocks_avoided": det.deadlocks_avoided,
        "armus.fp_ratio": det.false_positives / max(1, st.joins_rejected),
        "armus.self_s": layer_ns["armus"] / n / 1e9,
        "armus.share": layer_ns["armus"] / wall_ns,
        "obs.trace_overhead_x": median(traced) / median(untraced),
        "unattributed.share": remainder / wall_ns,
    })
    ctx.log(self_time_table(wall_ns, layer_ns, remainder) + f"\n(summed over {n} traced passes)")
    ctx.write_trace(
        [(name, 1, tid, t0, t1) for name, tid, t0, t1 in rec.intervals], {1: "verify-replay benchmark process"}
    )
    return m
