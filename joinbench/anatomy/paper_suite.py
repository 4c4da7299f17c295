"""paper-suite: the paper's six programs, verified against unverified.

One pass runs Jacobi, Smith-Waterman, Crypt, Strassen, Series and
NQueens, each on its native runtime (``Benchmark.execute``: threaded,
or cooperative for NQueens), and checks every result with
``Benchmark.verify()``.  A TJ-SP pass (with the Armus fallback) and a
``policy=None`` pass alternate, and their ratio is the paper's Table 2
time factor.  Memory follows the evaluation harness: a tracemalloc peak
per program in a separate pass, never during timed runs.
"""

from __future__ import annotations

import gc
import math
import time
import tracemalloc

from repro import obs
from repro.benchsuite import make_benchmark
from repro.core.policy import make_policy
from repro.errors import DeadlockAvoidedError
from repro.runtime import CooperativeRuntime, TaskRuntime

from .common import (
    PROGRAMS,
    alternate,
    hist_quantile,
    median,
    per_layer_defaults,
    percentiles,
    registry_histogram,
)
from .spans import SpanRecorder, TracedPolicy, TracedRuntime, self_time_table

#: laptop-scale inputs for the smoke tests (defaults are the full size)
SMOKE_PARAMS = {
    "Jacobi": {"n": 48, "iterations": 2},
    "Smith-Waterman": {"length": 60},
    "Crypt": {"size_bytes": 16 * 1024, "tasks": 16},
    "Strassen": {"n": 64, "cutoff": 32},
    "Series": {"coefficients": 50, "samples": 20},
    "NQueens": {"n": 6, "cutoff": 2},
}


def build_programs(seed: int, smoke: bool) -> list:
    """The six programs with seeded inputs, built (inputs excluded from timing)."""
    benches = []
    for i, name in enumerate(PROGRAMS):
        params = dict(SMOKE_PARAMS[name]) if smoke else {}
        bench = make_benchmark(name, **params)
        if "seed" in bench.params:
            bench = make_benchmark(name, **params, seed=(seed * 1_000_003 + i) % (1 << 31))
        bench.build()
        benches.append(bench)
    return benches


class SuitePass:
    """One pass over the six programs; keeps what the checks read."""

    def __init__(self, benches: list, policy, ledger=None, rec: "SpanRecorder | None" = None):
        self.times: dict[str, float] = {}
        self.runtimes: dict[str, object] = {}
        self.windows: list[tuple[int, int]] = []
        for bench in benches:
            gc.collect()
            pol = policy() if callable(policy) else policy
            if rec is not None:
                rec.begin(f"program.{bench.name}")
            t0 = time.perf_counter_ns()
            try:
                if rec is None:
                    result, rt = bench.execute(pol)
                else:
                    rt = bench.make_runtime(pol)
                    result = rt.run(bench.run, TracedRuntime(rt, rec))
            except DeadlockAvoidedError:
                if ledger is None:
                    raise
                ledger.check(False, f"paper-suite {bench.name}: unexpected DeadlockAvoidedError")
                continue
            finally:
                t1 = time.perf_counter_ns()
                if rec is not None:
                    rec.end()
            self.windows.append((t0, t1))
            self.times[bench.name] = (t1 - t0) / 1e9
            self.runtimes[bench.name] = rt
            if ledger is not None:
                ledger.check(bench.verify(result), f"paper-suite {bench.name}: Benchmark.verify()")

    @property
    def wall(self) -> float:
        return sum(self.times.values())

    @property
    def joins(self) -> int:
        return sum(rt.verifier.stats.joins_checked for rt in self.runtimes.values())


def _peaks_mb(benches: list, policy) -> dict[str, float]:
    """Per-program tracemalloc peak of one execution (the harness's method)."""
    peaks = {}
    for bench in benches:
        gc.collect()
        tracemalloc.start()
        try:
            bench.execute(policy)
            peaks[bench.name] = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return peaks


def check_paths(last: SuitePass, ledger, ctx) -> None:
    ctx.check_backend(next(iter(last.runtimes.values())).policy)
    for name, rt in last.runtimes.items():
        native = CooperativeRuntime if name == "NQueens" else TaskRuntime
        ledger.check(type(rt) is native, f"paper-suite {name}: ran on {native.__name__}")
        ledger.check(rt.verifier.stats.joins_checked > 0, f"paper-suite {name}: joins verified")
        ledger.check(rt.detector is not None, f"paper-suite {name}: Armus fallback attached")
    ledger.check(len(last.runtimes) == len(PROGRAMS), "paper-suite: all six programs ran")


def run(ctx) -> dict:
    setups = []
    for _ in range(ctx.setup_reps):
        t0 = time.perf_counter()
        benches = build_programs(ctx.seed, ctx.smoke)
        SuitePass(benches, "TJ-SP", ctx.ledger)  # warm-up, both arms
        SuitePass(benches, None, ctx.ledger)
        setups.append(time.perf_counter() - t0)
    return _traced(ctx, benches) if ctx.trace else _untraced(ctx, benches, setups)


def _untraced(ctx, benches: list, setups: list) -> dict:
    last = {}

    def verified() -> float:
        last["pass"] = p = SuitePass(benches, "TJ-SP", ctx.ledger)
        return p.wall

    tj, base = alternate(
        [verified, lambda: SuitePass(benches, None, ctx.ledger).wall], ctx.seconds
    )
    check_paths(last["pass"], ctx.ledger, ctx)
    peak_tj, peak_base = _peaks_mb(benches, "TJ-SP"), _peaks_mb(benches, None)
    wall = median(tj)
    ctx.log(f"passes: {len(tj)} verified, {len(base)} unverified; wall_s {wall:.4f}, "
            f"joins_per_s {last['pass'].joins / wall:.1f}; per program (last verified pass): "
            + ", ".join(f"{k} {v:.3f}s" for k, v in last["pass"].times.items()))
    return {
        "setup_s": ctx.setup_base + median(setups),
        "overhead_x": wall / median(base),
        "peak_alloc_mb": sum(peak_tj.values()),
        # Table 2 reports the geometric mean of per-program factors
        "mem_overhead_x": math.exp(
            sum(math.log(peak_tj[n] / peak_base[n]) for n in peak_tj) / len(peak_tj)
        ),
    }


def _traced(ctx, benches: list) -> dict:
    rec = SpanRecorder(keep=ctx.keep_spans, cpu=True)
    untraced: list[SuitePass] = []
    traced: list[SuitePass] = []
    proxies: list = []

    def policy_factory():
        proxies.append(TracedPolicy(make_policy("TJ-SP"), rec))
        return proxies[-1]

    def untraced_pass() -> float:
        with obs.using(None):
            untraced.append(SuitePass(benches, "TJ-SP", ctx.ledger))
        return untraced[-1].wall

    def base_pass() -> float:
        with obs.using(None):
            return SuitePass(benches, None, ctx.ledger).wall

    def traced_pass() -> float:
        traced.append(SuitePass(benches, policy_factory, ctx.ledger, rec))
        return traced[-1].wall

    with obs.enabled(tracing=False) as tel:
        _, base, _ = alternate([untraced_pass, base_pass, traced_pass], ctx.seconds)
        snap = tel.snapshot()
    check_paths(traced[-1], ctx.ledger, ctx)

    n = len(traced)
    windows = [w for p in traced for w in p.windows]
    wall_ns = sum(t1 - t0 for t0, t1 in windows)
    # Threads share the GIL: per-layer self CPU time (runtime.fork minus
    # the kernel calls inside it) partitions the wall; program bodies,
    # joins and parked waits carry no span and stay in the remainder.
    cpu = rec.self_cpu_ns()
    layer_ns = {layer: cpu.get(layer, 0) for layer in ("core", "runtime")}
    remainder = wall_ns - sum(layer_ns.values())
    fork_h = registry_histogram(snap, "repro_runtime_fork_ns")
    wait_h = registry_histogram(snap, "repro_runtime_blocked_wait_ns")
    counters = snap["counters"]
    waits = counters.get("repro_runtime_blocked_waits_total", 0)
    last = traced[-1]
    vstats = [rt.verifier.stats for rt in last.runtimes.values()]
    checked = sum(s.joins_checked for s in vstats)
    threaded = [rt for rt in last.runtimes.values() if isinstance(rt, TaskRuntime)]
    dets = [rt.detector.stats for rt in last.runtimes.values()]
    cycle = registry_histogram(snap, "repro_armus_cycle_check_ns")
    pass_proxies = proxies[-len(last.runtimes):]
    calls = sum(p.batch_calls for p in pass_proxies)
    misses = sum(p.cache_stats()["batch_entries"] + p.cache_stats()["evictions"] for p in pass_proxies)
    rejected = sum(s.joins_rejected for s in vstats)
    wall = median([p.wall for p in untraced])
    m = per_layer_defaults()
    m.update(percentiles("core.fork_ns", rec.durations("core.add_child")))
    m.update(percentiles("core.check_ns", rec.durations("core.permits")))
    m.update({
        "wall_s": wall,
        "joins_per_s": untraced[-1].joins / wall,
        "core.batch_ns_per_join": sum(rec.durations("core.permits_many"))
        / max(1, sum(p.batch_joins for p in proxies)),
        "core.self_s": layer_ns["core"] / n / 1e9,
        "core.share": layer_ns["core"] / wall_ns,
        "core.forks": sum(s.forks for s in vstats),
        "core.joins_checked": checked,
        "core.flag_ratio": rejected / checked,
        "core.cache_hit_ratio": (calls - misses) / calls if calls else 0.0,
        "core.cache_evictions": sum(p.cache_stats()["evictions"] for p in pass_proxies),
        "core.space_units": sum(p.space_units() for p in pass_proxies),
        "armus.cycle_check_ns.p50": hist_quantile(cycle, 0.5),
        "armus.cycle_check_ns.p99": hist_quantile(cycle, 0.99),
        "armus.cycle_checks": sum(d.cycle_checks for d in dets),
        "armus.false_positives": sum(d.false_positives for d in dets),
        "armus.deadlocks_avoided": sum(d.deadlocks_avoided for d in dets),
        "armus.fp_ratio": sum(d.false_positives for d in dets) / max(1, rejected),
        "runtime.base_wall_s": median(base),
        "runtime.fork_ns.p50": hist_quantile(fork_h, 0.5),
        "runtime.fork_ns.p99": hist_quantile(fork_h, 0.99),
        "runtime.blocked_wait_ns.p50": hist_quantile(wait_h, 0.5),
        "runtime.blocked_wait_ns.p99": hist_quantile(wait_h, 0.99),
        "runtime.blocked_waits": waits / n,
        "runtime.wakeups_per_wait": counters.get("repro_runtime_wakeups_total", 0) / max(1, waits),
        "runtime.thread_reuse": 1 - sum(rt.threads_started for rt in threaded)
        / max(1, sum(rt.tasks_started for rt in threaded)),
        "runtime.self_s": layer_ns["runtime"] / n / 1e9,
        "runtime.share": layer_ns["runtime"] / wall_ns,
        "obs.trace_overhead_x": median([p.wall for p in traced]) / wall,
        "unattributed.share": remainder / wall_ns,
    })
    for name in PROGRAMS:
        m[f"benchsuite.{name}.wall_s"] = median([p.times[name] for p in untraced])
    ctx.log(self_time_table(wall_ns, layer_ns, remainder) + f"\n(summed over {n} traced passes)")
    ctx.write_trace(
        [(name, 1, tid, t0, t1) for name, tid, t0, t1 in rec.intervals],
        {1: "paper-suite benchmark process"},
    )
    return m
