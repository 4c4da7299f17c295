"""procs-sidecar: the multi-process runtime against a live, journaling sidecar.

``ProcessRuntime(workers=1, spawn_paths="shm")`` — the parent plus one
worker process, two sidecar connections — runs against a
:class:`~repro.service.proc.SidecarProcess` the benchmark starts with a
journal.  The root dispatches ``DISPATCHES`` subtrees; each dispatched
body (a module-level function, so it pickles) forks ``MIDS`` mids that
fork ``LEAVES`` leaves.  The body's joins on its mids are cross-process
edges (its vertex was forked in the parent) and escalate to the sidecar
over the ``SessionClient`` wire; every other join resolves on a local
shard — about one join in five escalates.

The baseline arm runs the same program on the same runtime with no
sidecar (``sidecar=None``: cross-process joins resolve against the
local shared-memory authority), so ``overhead_x`` is what the sidecar
path costs; the two arms alternate pass by pass.  The baseline's
locally resolved escalations are its design, not failures.

Timings inside the run come from ``time.perf_counter()`` stamps the
bodies return (``CLOCK_MONOTONIC`` is shared across processes), so the
runtime itself carries no instrumentation.  The service probes use a
benchmark-owned ``SessionClient`` on the workload's own sidecar.
"""

from __future__ import annotations

import gc
import os
from collections import defaultdict
from multiprocessing import resource_tracker
import threading
import time
import tracemalloc
from time import perf_counter

from repro import obs
from repro.runtime.procs import ProcessRuntime
from repro.service.client import SessionClient
from repro.service.proc import SidecarProcess
from repro.service.server import ServiceJournal

from .common import alternate, median, per_layer_defaults, percentiles, quantile
from .spans import self_time_table, sweep

#: program shape at full size and for smoke tests.  Few wide dispatches:
#: each body's first escalation waits on its announcements, a fixed
#: delay, so fewer bodies keep the pass CPU-bound like its baseline and
#: the ratio of the two steady when the host's speed drifts.
FULL = {"dispatches": 8, "mids": 50, "leaves": 4, "spin": 200}
SMOKE = {"dispatches": 4, "mids": 3, "leaves": 2, "spin": 20}

#: samples per service probe
PROBES = 200

#: sidecar-less passes per verified one: they are ~2x shorter, so more
#: samples steady their median at little cost
BASE_PER_ROUND = 2

#: tracemalloc passes per arm, reported as their median: a single
#: pass's peak occasionally dips by a few percent
MEM_PASSES = 3

#: the attribution rows, innermost first
ROWS = ("procs.cross_join", "procs.local_join", "bodies", "procs.queue", "procs.spawn")


def _row(span: str) -> str:
    """The row a span counts towards (``bodies.mid`` -> ``bodies``)."""
    return span if span in ROWS else span.split(".", 1)[0]


# ----------------------------------------------------------------------
# the program (module level: bodies cross the process boundary)
# ----------------------------------------------------------------------
def leaf(x: int, spin: int) -> int:
    acc = x
    for _ in range(spin):
        acc = (acc * 2654435761 + 97) % 1000003
    return acc


def mid(rt, base: int, leaves: int, spin: int):
    start = perf_counter()
    futs = [rt.fork(leaf, base + i, spin) for i in range(leaves)]
    total, joins = 0, []
    for f in futs:
        a = perf_counter()
        total += rt.join(f)
        joins.append((a, perf_counter()))
    return total, (os.getpid(), threading.get_ident(), start, perf_counter(), joins)


def subtree(rt, forked_at: float, base: int, mids: int, leaves: int, spin: int):
    """A dispatched body: its joins on its own mids cross processes."""
    start = perf_counter()
    futs = [rt.fork(mid, rt, base + 1000 * m, leaves, spin) for m in range(mids)]
    total, cross, inner = 0, [], []
    for f in futs:
        a = perf_counter()
        value, info = rt.join(f)
        cross.append((a, perf_counter()))
        total += value
        inner.append(info)
    return total, {
        "forked": forked_at, "start": start, "end": perf_counter(),
        "pid": os.getpid(), "tid": threading.get_ident(), "cross": cross, "mids": inner,
    }


def _base(seed: int, t: int) -> int:
    """The seeded input of dispatch *t*."""
    return (seed * 7919) % 100_003 + 10_000 * t


def root(rt, shape: dict, seed: int):
    """The parent's root: dispatch every subtree, then join them all.
    (The worker hands each dispatched body its engine as ``rt``.)"""
    futs = [
        rt.fork(subtree, perf_counter(), _base(seed, t),
                shape["mids"], shape["leaves"], shape["spin"])
        for t in range(shape["dispatches"])
    ]
    return [rt.join(f) for f in futs]


def reference(shape: dict, seed: int) -> list[int]:
    """Sequential subtree results."""
    return [
        sum(leaf(_base(seed, t) + 1000 * m + i, shape["spin"])
            for m in range(shape["mids"]) for i in range(shape["leaves"]))
        for t in range(shape["dispatches"])
    ]


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
class ProcsPass:
    """One run on a fresh ``ProcessRuntime`` (worker spawn included);
    ``url=None`` is the sidecar-less baseline."""

    def __init__(self, url: "str | None", shape: dict, seed: int) -> None:
        gc.collect()
        self.rt = ProcessRuntime("TJ-SP", workers=1, spawn_paths="shm", sidecar=url)
        self.t0 = perf_counter()
        self.results = self.rt.run(root, self.rt, shape, seed)
        self.t1 = perf_counter()
        self.wall = self.t1 - self.t0
        self.joins = self.rt.join_stats()


def _peak_mb(fn) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def check_pass(p: ProcsPass, shape: dict, expected: list, ledger) -> None:
    got = [value for value, _ in p.results]
    bad = sum(1 for a, b in zip(got, expected) if a != b) + abs(len(got) - len(expected))
    ledger.ops(len(expected), bad, "procs-sidecar subtree results vs sequential reference")
    j = p.joins
    cross = shape["dispatches"] * shape["mids"]
    ledger.ops(cross, j["degraded_joins"], "procs-sidecar: degraded (sidecar-less) joins")
    ledger.ops(shape["dispatches"], p.rt.tasks_redispatched, "procs-sidecar: redispatched tasks")
    ledger.check(p.rt.worker_deaths == 0, "procs-sidecar: no worker deaths")
    ledger.check(j["cross_joins"] == cross > 0, "procs-sidecar: procs.cross_joins > 0, one per mid")
    ledger.check(j["degraded_joins"] == 0, "procs-sidecar: procs.degraded_joins == 0")
    ledger.check(p.rt.sidecar_url is not None, "procs-sidecar: runtime attached to the sidecar")
    ledger.check(p.rt.spawn_paths == "shm", "procs-sidecar: shared-memory spawn paths")


class Sidecar:
    """The workload's sidecar: a journaling ``repro serve`` child."""

    def __init__(self, out_dir: str, tag: str) -> None:
        self.journal = os.path.join(out_dir, f"sidecar-{tag}.jsonl")
        if os.path.exists(self.journal):
            os.remove(self.journal)  # a stale journal would be recovered
        self.proc = SidecarProcess(port=0, journal_path=self.journal)
        probe = SessionClient(self.proc.url, f"handshake-{tag}", tenant=f"handshake-{tag}")
        ok = probe.connect()
        probe.close()
        if not ok:
            self.proc.stop()
            raise RuntimeError(f"sidecar handshake failed: {probe.degrade_reason}")

    @property
    def url(self) -> str:
        return self.proc.url

    def stop(self) -> None:
        self.proc.stop()


def run(ctx) -> dict:
    shape = SMOKE if ctx.smoke else FULL
    os.makedirs(ctx.out_dir, exist_ok=True)
    setups = []
    sidecar = None
    try:
        for rep in range(ctx.setup_reps):
            if sidecar is not None:
                sidecar.stop()
            t0 = perf_counter()
            sidecar = Sidecar(ctx.out_dir, f"seed{ctx.seed}-trace{int(ctx.trace)}-{rep}")
            warm = ProcsPass(sidecar.url, shape, ctx.seed)  # warm-up, both arms
            ProcsPass(None, shape, ctx.seed)
            setups.append(perf_counter() - t0)
        ctx.check_backend(warm.rt.policy, expected="shm")
        del warm
        if ctx.trace:
            return _traced(ctx, shape, sidecar)
        return _untraced(ctx, shape, sidecar, setups)
    finally:
        if sidecar is not None:
            sidecar.stop()
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop, and wait for, the resource-tracker process that the runtime's
    shared memory and queues started, so the run leaves no child behind.
    Collect the finished runtimes first: their queues' semaphores must
    unregister themselves before the tracker goes."""
    gc.collect()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()


def _untraced(ctx, shape: dict, sidecar: Sidecar, setups: list) -> dict:
    passes: list[ProcsPass] = []

    def verified() -> float:
        passes.append(ProcsPass(sidecar.url, shape, ctx.seed))
        return passes[-1].wall

    def baseline() -> float:
        return ProcsPass(None, shape, ctx.seed).wall

    tj, *bases = alternate([verified] + [baseline] * BASE_PER_ROUND, ctx.seconds)
    base = [t for b in bases for t in b]
    expected = reference(shape, ctx.seed)
    for p in passes:
        check_pass(p, shape, expected, ctx.ledger)
    peak_tj = median([_peak_mb(lambda: ProcsPass(sidecar.url, shape, ctx.seed))
                      for _ in range(MEM_PASSES)])
    peak_base = median([_peak_mb(lambda: ProcsPass(None, shape, ctx.seed))
                        for _ in range(MEM_PASSES)])
    wall = median(tj)
    j = passes[-1].joins
    ctx.log(f"passes: {len(tj)} verified, {len(base)} sidecar-less; joins/pass "
            f"{j['local_joins']} local + {j['cross_joins']} cross; wall_s {wall:.4f}, "
            f"joins_per_s {(j['local_joins'] + j['cross_joins']) / wall:.1f}, "
            f"IQR/median {(quantile(tj, .75) - quantile(tj, .25)) / wall:.3f}")
    return {
        "setup_s": ctx.setup_base + median(setups),
        "overhead_x": wall / median(base),
        "peak_alloc_mb": peak_tj,
        "mem_overhead_x": peak_tj / peak_base,
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def _intervals(p: ProcsPass) -> list[tuple[str, int, int, int, int]]:
    """The pass as spans ``(name, pid, tid, t0_ns, t1_ns)`` from the stamps."""
    ns = lambda t: int(t * 1e9)  # noqa: E731
    parent = os.getpid()
    infos = [info for _, info in p.results]
    first = min(info["start"] for info in infos)
    out = [("procs.run", parent, 0, ns(p.t0), ns(p.t1)),
           ("procs.spawn", parent, 0, ns(p.t0), ns(first))]
    for k, info in enumerate(infos):
        out.append(("procs.queue", parent, 1000 + k, ns(info["forked"]), ns(info["start"])))
        out.append(("bodies.subtree", info["pid"], info["tid"], ns(info["start"]), ns(info["end"])))
        for a, b in info["cross"]:
            out.append(("procs.cross_join", info["pid"], info["tid"], ns(a), ns(b)))
        for pid, tid, s, e, joins in info["mids"]:
            out.append(("bodies.mid", pid, tid, ns(s), ns(e)))
            for a, b in joins:
                out.append(("procs.local_join", pid, tid, ns(a), ns(b)))
    return out


def _probe_service(url: str, tag: str, journal_dir: str) -> dict:
    """Round trips on a benchmark-owned session, plus a journal flush probe."""
    client = SessionClient(url, f"probe-{tag}", tenant=f"probe-{tag}")
    if not client.connect():
        raise RuntimeError(f"probe session failed: {client.degrade_reason}")
    try:
        client.init(0)
        children = list(range(1, 65))
        for edge, c in enumerate(children):
            client.fork(0, c, edge, 1)
        client.flush()
        check, event, batch = [], [], []
        for i in range(PROBES):
            t = time.perf_counter_ns()
            ok = client.check(0, children[i % 64])
            check.append(time.perf_counter_ns() - t)
            if ok is not True:
                raise RuntimeError(f"probe check answered {ok!r}")
        for i in range(PROBES):
            c = 1000 + i
            t = time.perf_counter_ns()
            client.fork(0, c, 64 + i, 1)  # announce a fork, then check it
            ok = client.check(0, c)
            event.append(time.perf_counter_ns() - t)
            if ok is not True:
                raise RuntimeError(f"probe event check answered {ok!r}")
        for _ in range(PROBES // 2):
            t = time.perf_counter_ns()
            oks = client.check_batch(0, children)
            batch.append(time.perf_counter_ns() - t)
            if oks is None or not all(oks):
                raise RuntimeError("probe batch check failed")
        stats = client.stats()
    finally:
        client.close()
    # The server journal keeps no flush histogram; time its critical
    # (flushing) verdict write directly, on a journal of our own.
    path = os.path.join(journal_dir, f"journal-probe-{tag}.jsonl")
    journal = ServiceJournal(path)
    flush = []
    try:
        for i in range(PROBES):
            t = time.perf_counter_ns()
            journal.log_verdict("probe", 0, i, True)
            flush.append(time.perf_counter_ns() - t)
    finally:
        journal.close()
        os.remove(path)
    out = {}
    out.update(percentiles("service.check_rtt_us", check, 1e-3))
    out.update(percentiles("service.event_check_rtt_us", event, 1e-3))
    out.update(percentiles("service.batch_rtt_us", batch, 1e-3))
    out["service.refusals"] = sum(
        s.get("backpressure_refusals", 0) for s in stats.get("per_session", {}).values()
    )
    out["service.protocol_errors"] = stats.get("protocol_errors", 0)
    out["service.journal_flush_ns.p50"] = quantile(flush, 0.5)
    return out


def _traced(ctx, shape: dict, sidecar: Sidecar) -> dict:
    traced: list[ProcsPass] = []

    def untraced_pass() -> float:
        return ProcsPass(sidecar.url, shape, ctx.seed).wall

    def traced_pass() -> float:
        with obs.enabled(tracing=False):
            traced.append(ProcsPass(sidecar.url, shape, ctx.seed))
        return traced[-1].wall

    untraced, _ = alternate([untraced_pass, traced_pass], ctx.seconds)
    expected = reference(shape, ctx.seed)
    for p in traced:
        check_pass(p, shape, expected, ctx.ledger)
    probes = _probe_service(sidecar.url, f"seed{ctx.seed}", ctx.out_dir)

    n = len(traced)
    rows = {row: 0 for row in ROWS}
    wall_ns = 0
    durations: dict[str, list[int]] = defaultdict(list)
    for p in traced:
        spans = _intervals(p)
        t0, t1 = spans[0][3], spans[0][4]  # the procs.run span: the pass
        wall_ns += t1 - t0
        part, _ = sweep(((_row(name), a, b) for name, _, _, a, b in spans[1:]), t0, t1, ROWS)
        for row in ROWS:
            rows[row] += part[row]
        for name, _, _, a, b in spans:
            durations[name].append(b - a)
    remainder = wall_ns - sum(rows.values())
    procs_ns = sum(ns for row, ns in rows.items() if row.startswith("procs."))
    j = traced[-1].joins
    # Each body announces its mids, then joins them: its first escalation
    # flushes the announcements ("announce, then check"), the rest are
    # plain checks.  Price each kind at its probed round trip.
    per_pass_wall_us = wall_ns / n / 1e3
    event_us = probes["service.event_check_rtt_us.p50"]
    check_us = probes["service.check_rtt_us.p50"]
    first = shape["dispatches"]
    explained = (first * event_us + (j["cross_joins"] - first) * check_us) / per_pass_wall_us
    naive = event_us * j["cross_joins"] / per_pass_wall_us
    m = per_layer_defaults()
    m.update(probes)
    for name in ("queue", "cross_join", "local_join"):
        m.update(percentiles(f"procs.{name}_ms", durations[f"procs.{name}"], 1e-6))
    m.update({
        "wall_s": median(untraced),
        "joins_per_s": (j["local_joins"] + j["cross_joins"]) / median(untraced),
        "procs.spawn_s": median(durations["procs.spawn"]) / 1e9,
        "procs.local_joins": j["local_joins"],
        "procs.cross_joins": j["cross_joins"],
        "procs.degraded_joins": j["degraded_joins"],
        "procs.escalation_ratio": j["escalation_ratio"],
        "procs.worker_deaths": sum(p.rt.worker_deaths for p in traced),
        "procs.redispatched": sum(p.rt.tasks_redispatched for p in traced),
        "procs.self_s": procs_ns / n / 1e9,
        "procs.share": procs_ns / wall_ns,
        "service.explained_share": explained,
        "core.joins_checked": j["local_joins"] + j["cross_joins"],
        "obs.trace_overhead_x": median([p.wall for p in traced]) / median(untraced),
        "unattributed.share": remainder / wall_ns,
    })
    ctx.log(self_time_table(wall_ns, rows, remainder, extra=(
        f"service.event_check_rtt_us.p50 {event_us:.0f} us x {j['cross_joins']} escalating joins "
        f"= {naive:.1%} of the pass wall (every escalation priced as announce-then-check)\n"
        f"{first} announce-then-check x {event_us:.0f} us + {j['cross_joins'] - first} checks x "
        f"{check_us:.0f} us = {explained:.1%} of the pass wall (service.explained_share)"))
        + f"\n(summed over {n} traced passes; each instant goes to the first row "
        "active in any process)")
    ctx.write_trace(spans, {os.getpid(): "parent (root, dispatch)"})  # the last pass
    return m
