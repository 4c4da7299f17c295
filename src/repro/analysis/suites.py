"""The benchmark suites: each one measures a workload and returns records.

Every suite takes a scale (``"full"`` or ``"smoke"``), runs its
workload at that scale's shape and repetition count, checks the
program results (a run that computed the wrong answer raises
``RuntimeError`` instead of reporting a time), and returns a flat list
of :class:`~repro.analysis.record.Measurement` records, derived numbers
included.  :mod:`repro.analysis.bounds` judges them.

* ``hotpath`` — the verifier alone (``on_fork``/``check_join(s)``
  through :class:`~repro.core.verifier.Verifier`) on four synthetic
  shapes, for every TJ variant and the KJ baselines: join-heavy
  (barrier re-joins of one join set, which the pure-Python TJ-SP
  kernel answers from its batch-verdict cache), fork-heavy (O(1) row
  append vs O(h) tuple copy), deep-tree (long ``Less`` walks) and
  wide-tree (a star).
* ``runtime`` — whole programs with the supervision layer in the loop:
  the fork-chain unwind (every wakeup gates the next, so a lagging
  wakeup compounds), the same chain with the crash-consistent journal
  off and on (interleaved; every level pays a critical ``block``
  flush), and Table-2-style benchsuite configs, ``policy=None`` against
  each verified policy.
* ``telemetry`` — a fork chain and a join-heavy fan under three
  interleaved telemetry arms: off, metrics only, metrics plus tracing.
* ``service`` — ≥100k parent-joins-child audits streamed over TCP to
  an in-process sidecar through one ``SessionClient`` tenant session,
  as procs streams its cross-process verdicts, with RSS sampled.
* ``procs`` — the fork-heavy deep shape on a
  :class:`~repro.runtime.procs.ProcessRuntime` pool against the same
  shape single-process threaded, with the soak's own sidecar.
* ``obs_dist`` — the procs shape with distributed telemetry off and on.
* ``predict`` — predictor throughput over a seeded journal corpus, and
  a recording ``SimRuntime`` against the cooperative runtime.

Ratios of two timed arms interleave the arms per repetition, so
machine-load drift reaches both sides of the ratio.
"""

from __future__ import annotations

import math
import os
import random
import tempfile
import time
from typing import Callable

from .record import Measurement
from .stats import geometric_mean, median
from ..benchsuite import make_benchmark
from ..benchsuite.harness import BenchmarkReport, Harness
from ..core._cbuild import backend_choice
from ..core.policy import make_policy
from ..core.verifier import Verifier
from ..runtime.threaded import TaskRuntime

__all__ = ["SUITES", "report_records"]

# ----------------------------------------------------------------------
# hot path
# ----------------------------------------------------------------------
#: the flat TJ-SP, its seed baseline (Algorithm 3), the other TJ
#: variants and the KJ baselines
HOTPATH_POLICIES = ("TJ-SP", "TJ-SP-legacy", "TJ-GT", "TJ-JP", "TJ-OM", "KJ-VC", "KJ-SS")

HOTPATH_PARAMS: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "join-heavy": {"tasks": 512, "waiters": 32, "targets": 32, "rounds": 24},
        "fork-heavy": {"tasks": 4000, "queries": 200, "window": 64},
        "deep-tree": {"tasks": 1200, "queries": 2500},
        "wide-tree": {"tasks": 3000, "queries": 4000},
    },
    "smoke": {
        "join-heavy": {"tasks": 128, "waiters": 12, "targets": 12, "rounds": 8},
        "fork-heavy": {"tasks": 800, "queries": 60, "window": 32},
        "deep-tree": {"tasks": 300, "queries": 500},
        "wide-tree": {"tasks": 600, "queries": 800},
    },
}

_SEED = 0x7A015


def _build_balanced(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    for k in range(1, n):
        nodes.append(verifier.on_fork(nodes[(k - 1) // 2]))
    return nodes


def _build_chain(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    for _ in range(1, n):
        nodes.append(verifier.on_fork(nodes[-1]))
    return nodes


def _build_star(verifier: Verifier, n: int) -> list:
    nodes = [verifier.on_init()]
    root = nodes[0]
    for _ in range(1, n):
        nodes.append(verifier.on_fork(root))
    return nodes


def _build_bushy(verifier: Verifier, n: int, window: int, rng: random.Random) -> list:
    """Attach each new task to a random recent node: deepish, bushy."""
    nodes = [verifier.on_init()]
    for _ in range(1, n):
        parent = nodes[-rng.randint(1, min(window, len(nodes)))]
        nodes.append(verifier.on_fork(parent))
    return nodes


def _check_pairs(verifier: Verifier, nodes: list, queries: int, rng: random.Random) -> None:
    pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(queries)]
    check = verifier.check_join
    for a, b in pairs:
        check(a, b)


def _join_heavy(verifier: Verifier, p: dict, rng: random.Random) -> None:
    nodes = _build_balanced(verifier, p["tasks"])
    waiters = rng.sample(nodes, p["waiters"])
    targets = rng.sample(nodes, p["targets"])
    for _ in range(p["rounds"]):
        for waiter in waiters:
            verifier.check_joins(waiter, targets)


def _fork_heavy(verifier: Verifier, p: dict, rng: random.Random) -> None:
    nodes = _build_bushy(verifier, p["tasks"], p["window"], rng)
    for _ in range(p["queries"]):
        verifier.check_join(rng.choice(nodes), rng.choice(nodes))


def _deep_tree(verifier: Verifier, p: dict, rng: random.Random) -> None:
    _check_pairs(verifier, _build_chain(verifier, p["tasks"]), p["queries"], rng)


def _wide_tree(verifier: Verifier, p: dict, rng: random.Random) -> None:
    _check_pairs(verifier, _build_star(verifier, p["tasks"]), p["queries"], rng)


_SHAPES = {
    "join-heavy": _join_heavy,
    "fork-heavy": _fork_heavy,
    "deep-tree": _deep_tree,
    "wide-tree": _wide_tree,
}


def _hotpath_cell(shape: str, policy: str, p: dict) -> Measurement:
    """One warmup then three timed repetitions, each on a fresh policy and
    verifier, so caches start cold every time."""
    times = []
    for i in range(1 + 3):
        verifier = Verifier(make_policy(policy))
        t0 = time.perf_counter()
        _SHAPES[shape](verifier, p, random.Random(_SEED))
        if i:
            times.append(time.perf_counter() - t0)
    stats = verifier.stats
    return Measurement(
        f"hotpath.{shape}.{policy}.time",
        "s",
        min(times),
        times,
        {
            **p,
            "events": stats.forks + stats.joins_checked,
            "backend": getattr(verifier.policy, "backend", "py"),
        },
    )


def hotpath_suite(scale: str) -> list[Measurement]:
    t0 = time.perf_counter()
    out = []
    for shape, p in HOTPATH_PARAMS[scale].items():
        cells = {policy: _hotpath_cell(shape, policy, p) for policy in HOTPATH_POLICIES}
        if len({m.params["events"] for m in cells.values()}) != 1:
            raise RuntimeError(f"{shape}: policies saw different event streams")
        tj = cells["TJ-SP"]
        pinned = backend_choice()
        if pinned != "auto" and tj.params["backend"] != pinned:
            raise RuntimeError(f"TJ-SP ran on {tj.params['backend']!r}, not the pinned {pinned!r}")
        backend = {"backend": tj.params["backend"]}
        out += cells.values()
        out.append(
            Measurement(f"hotpath.{shape}.speedup", "x", cells["TJ-SP-legacy"].value / tj.value, params=backend)
        )
        if shape == "join-heavy":
            out.append(
                Measurement("hotpath.join-heavy.kj_ratio", "x", tj.value / cells["KJ-VC"].value, params=backend)
            )
    out.append(Measurement("hotpath.wall_s", "s", time.perf_counter() - t0))
    return out


# ----------------------------------------------------------------------
# runtime: fork-chain unwind, journal, Table-2-style configs
# ----------------------------------------------------------------------
#: policies measured against the ``policy=None`` baseline
RUNTIME_POLICIES = ("TJ-SP", "TJ-OM", "KJ-VC", "KJ-SS")

#: chain depth and leaf sleep; the sleep outlasts a 1 ms -> 50 ms poll
#: backoff's ramp, so a tick-bound wakeup would pay part of a tick per level
JOIN_CHAIN_PARAMS = {
    "full": {"depth": 8, "leaf_sleep": 0.03},
    "smoke": {"depth": 6, "leaf_sleep": 0.02},
}

JOURNAL_PARAMS = {
    "full": {"depth": 8, "leaf_sleep": 0.01},
    "smoke": {"depth": 6, "leaf_sleep": 0.005},
}

OVERHEAD_PARAMS: dict[str, dict[str, dict[str, int]]] = {
    "full": {
        "Series": {"coefficients": 400, "samples": 100},
        "Crypt": {"size_bytes": 256 * 1024, "tasks": 128},
        "NQueens": {"n": 8, "cutoff": 3},
    },
    "smoke": {
        "Series": {"coefficients": 160, "samples": 40},
        "NQueens": {"n": 7, "cutoff": 3},
    },
}


def _chain_main(rt: TaskRuntime, depth: int, leaf_sleep: float):
    """Depth tasks, each joining its child; the leaf sleeps."""

    def level(d: int) -> int:
        if d == 0:
            time.sleep(leaf_sleep)
            return 1
        return rt.fork(level, d - 1).join() + 1

    return lambda: rt.fork(level, depth - 1).join()


def _timed_chain(rt: TaskRuntime, depth: int, leaf_sleep: float) -> float:
    t0 = time.perf_counter()
    result = rt.run(_chain_main(rt, depth, leaf_sleep))
    elapsed = time.perf_counter() - t0
    if result != depth:
        raise RuntimeError(f"fork chain returned {result!r}, expected {depth}")
    return elapsed


def report_records(prefix: str, report: BenchmarkReport, estimate) -> list[Measurement]:
    """A time record per configuration, then each policy's factor over
    ``policy=None``; *estimate* reduces the samples (``min``, ``mean``)."""
    out = []
    for config, m in {"none": report.baseline, **report.policies}.items():
        params = {
            **report.params,
            "verified": m.verified,
            "peak_bytes": m.peak_bytes,
            "verifier_space_units": m.verifier_space_units,
            "false_positives": m.false_positives,
            "deadlocks_avoided": m.deadlocks_avoided,
            "joins_checked": m.joins_checked,
            "forks": m.forks,
        }
        out.append(Measurement(f"{prefix}.{report.name}.{config}.time", "s", estimate(m.times), list(m.times), params))
    base = estimate(report.baseline.times)
    for policy, m in report.policies.items():
        out.append(Measurement(f"{prefix}.{report.name}.{policy}.overhead", "x", estimate(m.times) / base))
    return out


def runtime_suite(scale: str) -> list[Measurement]:
    t0 = time.perf_counter()
    chain = JOIN_CHAIN_PARAMS[scale]
    times = [_timed_chain(TaskRuntime(policy=None), **chain) for _ in range(1 + 3)][1:]
    out = [
        Measurement("runtime.join_chain.time", "s", min(times), times, dict(chain)),
        Measurement("runtime.unwind_ms", "ms", (min(times) - chain["leaf_sleep"]) * 1e3),
        Measurement("runtime.join_chain.wall_s", "s", time.perf_counter() - t0),
    ]

    harness = Harness(repetitions=3, warmup=1, policies=RUNTIME_POLICIES, measure_memory=False)
    factors: dict[str, list[float]] = {policy: [] for policy in RUNTIME_POLICIES}
    for name, p in OVERHEAD_PARAMS[scale].items():
        records = report_records("runtime", harness.measure_benchmark(make_benchmark(name, **p)), min)
        out += records
        by_name = {m.name: m.value for m in records}
        for policy in RUNTIME_POLICIES:
            factor = by_name[f"runtime.{name}.{policy}.overhead"]
            if not factor > 0:
                raise RuntimeError(f"{name} {policy} overhead factor is {factor}")
            factors[policy].append(factor)
    for policy, fs in factors.items():
        out.append(Measurement(f"runtime.{policy}.geomean", "x", geometric_mean(fs)))

    journal = JOURNAL_PARAMS[scale]
    arms: dict[str, list[float]] = {"off": [], "on": []}
    written = {}
    with tempfile.TemporaryDirectory(prefix="repro-journal-bench-") as tmp:
        for i in range(1 + 5):
            for mode in arms:
                path = os.path.join(tmp, f"rep{i}.jsonl")
                rt = TaskRuntime(policy="TJ-SP", journal=path if mode == "on" else None)
                elapsed = _timed_chain(rt, **journal)
                written[mode] = rt.journal.records_written if rt.journal else 0
                if i:
                    arms[mode].append(elapsed)
    if written["on"] <= 0 or written["off"] != 0:
        raise RuntimeError(f"journal arms wrote {written} records; want on > 0, off == 0")
    for mode, ts in arms.items():
        out.append(
            Measurement(f"runtime.journal.{mode}.time", "s", median(ts), ts, {**journal, "records": written[mode]})
        )
    out.append(Measurement("runtime.journal_factor", "x", median(arms["on"]) / median(arms["off"])))
    out.append(Measurement("runtime.wall_s", "s", time.perf_counter() - t0))
    return out


# ----------------------------------------------------------------------
# telemetry
# ----------------------------------------------------------------------
OBS_MODES = ("off", "metrics", "full")

#: the fork chain blocks at every level (fork/check histograms plus the
#: blocked-wait path); the fan is the zero-work density shape
OBS_PARAMS = {
    "full": {
        "fork_chain": {"depth": 8, "leaf_sleep": 0.01},
        "join_heavy": {"width": 16, "rounds": 4, "leaf_sleep": 0.002},
    },
    "smoke": {
        "fork_chain": {"depth": 6, "leaf_sleep": 0.01},
        "join_heavy": {"width": 8, "rounds": 3, "leaf_sleep": 0.004},
    },
}

OBS_REPETITIONS = {"full": 9, "smoke": 7}


def _fan_main(rt: TaskRuntime, width: int, rounds: int, leaf_sleep: float):
    """Each round forks *width* brief tasks and joins them all."""

    def leaf() -> int:
        if leaf_sleep:
            time.sleep(leaf_sleep)
        return 1

    def main() -> int:
        total = 0
        for _ in range(rounds):
            futures = [rt.fork(leaf) for _ in range(width)]
            total += sum(f.join() for f in futures)
        return total

    return main


def _time_obs_once(shape: str, p: dict, mode: str) -> float:
    """A fresh session per run: components capture the active session at
    construction, so a reused one would carry ring and shard state over."""
    from .. import obs

    session = None if mode == "off" else obs.Telemetry(tracing=mode == "full")
    with obs.using(session):
        rt = TaskRuntime(policy="TJ-SP")
        if shape == "fork_chain":
            return _timed_chain(rt, int(p["depth"]), p["leaf_sleep"])
        expected = int(p["width"]) * int(p["rounds"])
        t0 = time.perf_counter()
        result = rt.run(_fan_main(rt, int(p["width"]), int(p["rounds"]), p["leaf_sleep"]))
        elapsed = time.perf_counter() - t0
    if result != expected:
        raise RuntimeError(f"{shape} returned {result!r}, expected {expected}")
    return elapsed


def telemetry_suite(scale: str) -> list[Measurement]:
    t0 = time.perf_counter()
    shapes = OBS_PARAMS[scale]
    times = {(s, m): [] for s in shapes for m in OBS_MODES}
    for i in range(1 + OBS_REPETITIONS[scale]):
        for shape, p in shapes.items():
            for mode in OBS_MODES:
                elapsed = _time_obs_once(shape, p, mode)
                if i:
                    times[shape, mode].append(elapsed)
    out = [
        Measurement(f"telemetry.{shape}.{mode}.time", "s", median(ts), ts, dict(shapes[shape]))
        for (shape, mode), ts in times.items()
    ]
    for mode in OBS_MODES[1:]:
        factors = {s: median(times[s, mode]) / median(times[s, "off"]) for s in shapes}
        worst = max(factors, key=factors.get)
        out.append(Measurement(f"telemetry.{mode}_factor", "x", factors[worst], params={"shape": worst}))
    out.append(Measurement("telemetry.wall_s", "s", time.perf_counter() - t0))
    return out


# ----------------------------------------------------------------------
# sidecar audit soak
# ----------------------------------------------------------------------
#: one tenant session, a root forking *width* children once, then
#: *audits* parent-joins-child verdicts streamed as the procs runtime
#: streams its cross-process ones
SERVICE_PARAMS = {"audits": 120_000, "width": 64}

#: absolute RSS slack under the relative growth bound, so a tiny
#: baseline cannot make the bound spuriously tight
RSS_SLACK_KB = 8 * 1024


def _read_rss_kb() -> int:
    """Resident set of this process in kB (0 where /proc is unavailable)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def service_suite(scale: str) -> list[Measurement]:
    """Both scales run the full soak, on the audit stream procs runs.

    A parent joining its own child is TJ-permitted, so the sidecar must
    re-derive every audit and disagree with none: one mismatch means
    the sidecar's verdicts are wrong, and the suite raises.  RSS is read
    after a gc on both ends of the soak; the session's state must not
    grow with traffic.
    """
    import gc

    from ..service.client import SessionClient
    from ..service.server import VerificationServer

    t0 = time.perf_counter()
    audits, width = SERVICE_PARAMS["audits"], SERVICE_PARAMS["width"]
    children = range(1, width + 1)
    with VerificationServer() as server:
        host, port = server.address
        client = SessionClient(f"remote://{host}:{port}", "soak", tenant="soak")
        try:
            client.connect()
            client.init(0)
            for child in children:
                client.fork(0, child, child - 1, 1)
                client.audit(0, child, True)  # lazy allocations land before the baseline
            client.sync()
            warm = client.audits_applied
            gc.collect()
            before = peak = _read_rss_kb()
            t_soak = time.perf_counter()
            for i in range(audits):
                client.audit(0, children[i % width], True)
                if i % 8192 == 0:
                    peak = max(peak, _read_rss_kb())
            client.sync()
            elapsed = time.perf_counter() - t_soak
            gc.collect()
            after = _read_rss_kb()
        finally:
            client.close()
    if client.audit_mismatches:
        raise RuntimeError(
            f"sidecar re-derived {client.audit_mismatches} parent-joins-child "
            "audits differently"
        )
    applied = client.audits_applied - warm
    params = dict(SERVICE_PARAMS)
    return [
        Measurement("service.joins", "count", applied, params=params),
        Measurement("service.joins_per_s", "1/s", applied / elapsed),
        Measurement("service.degradations", "count", int(client.degraded)),
        Measurement("service.rss_before_kb", "kB", before),
        Measurement("service.rss_after_kb", "kB", after),
        Measurement("service.rss_peak_kb", "kB", max(peak, after)),
        # after <= before * g + slack  <=>  (after - slack) / before <= g
        Measurement(
            "service.rss_growth", "x", (after - RSS_SLACK_KB) / before if before else math.nan,
            params={"slack_kb": RSS_SLACK_KB, "rss_before_kb": before},
        ),
        Measurement("service.wall_s", "s", time.perf_counter() - t0),
    ]


# ----------------------------------------------------------------------
# multi-process soak
# ----------------------------------------------------------------------
#: *dispatches* subtrees cross the process boundary, each forking *mids*
#: in-worker tasks that fork *leaves* leaves: only the dispatched task's
#: own joins escalate.  Tasks = dispatches x (1 + mids + mids*leaves);
#: the full shape is above one million.  *spin* is per-leaf integer work.
PROCS_PARAMS = {
    "full": {"workers": 4, "dispatches": 1000, "mids": 10, "leaves": 100, "spin": 120},
    "smoke": {"workers": 2, "dispatches": 12, "mids": 3, "leaves": 6, "spin": 40},
}

#: the procs shape again, smaller: for distributed telemetry the ratio
#: is the product, not the volume
OBS_DIST_PARAMS = {
    "full": {"workers": 4, "dispatches": 200, "mids": 8, "leaves": 25, "spin": 120},
    "smoke": {"workers": 2, "dispatches": 16, "mids": 3, "leaves": 6, "spin": 40},
}


def _procs_soak_leaf(x: int, spin: int) -> int:
    """Per-leaf integer work (module level: it crosses processes)."""
    acc = x
    for _ in range(spin):
        acc = (acc * 2654435761 + 97) % 1000003
    return acc


def _procs_soak_mid(rt, base: int, leaves: int, spin: int) -> int:
    futs = [rt.fork(_procs_soak_leaf, base + i, spin) for i in range(leaves)]
    return sum(rt.join_batch(futs))


def _procs_soak_subtree(rt, base: int, mids: int, leaves: int, spin: int) -> int:
    # in-worker forks are plain engine forks: the engine rides along
    futs = [rt.fork(_procs_soak_mid, rt, base + 1000 * m, leaves, spin) for m in range(mids)]
    return sum(rt.join_batch(futs))


def _procs_root(rt, p: dict, engine_arg: bool):
    def root():
        extra = (rt,) if engine_arg else ()
        futs = [
            rt.fork(_procs_soak_subtree, *extra, 10_000 * t, p["mids"], p["leaves"], p["spin"])
            for t in range(p["dispatches"])
        ]
        return rt.join_batch(futs)

    return root


def procs_suite(scale: str) -> list[Measurement]:
    """The shape single-process threaded, then on the pool, every subtree
    result compared; verified tasks/s for both arms and the merged
    local/cross join split."""
    from ..runtime.procs import ProcessRuntime

    p = PROCS_PARAMS[scale]
    base_rt = TaskRuntime("TJ-SP")
    t0 = time.perf_counter()
    base_results = base_rt.run(_procs_root(base_rt, p, engine_arg=True))
    base_elapsed = time.perf_counter() - t0
    base_tasks = p["dispatches"] * (1 + p["mids"] + p["mids"] * p["leaves"])

    rt = ProcessRuntime(workers=p["workers"], sidecar="auto")
    t0 = time.perf_counter()
    results = rt.run(_procs_root(rt, p, engine_arg=False))
    elapsed = time.perf_counter() - t0
    divergences = sum(1 for a, b in zip(base_results, results) if a != b)
    divergences += abs(len(base_results) - len(results))
    joins = rt.join_stats()
    tasks = rt.tasks_completed + sum(s.get("tasks_started", 0) for s in rt._worker_stats.values())
    rate, base_rate = tasks / elapsed, base_tasks / base_elapsed
    return [
        Measurement("procs.tasks", "count", tasks, params=dict(p)),
        Measurement("procs.workers", "count", p["workers"]),
        Measurement("procs.tasks_per_s", "1/s", rate),
        Measurement("procs.baseline_tasks_per_s", "1/s", base_rate),
        Measurement("procs.speedup", "x", rate / base_rate, params={"workers": p["workers"]}),
        Measurement("procs.local_joins", "count", joins["local_joins"]),
        Measurement("procs.cross_joins", "count", joins["cross_joins"]),
        Measurement("procs.degraded_joins", "count", joins["degraded_joins"]),
        Measurement("procs.audit_mismatches", "count", joins["audit_mismatches"]),
        Measurement("procs.escalation_ratio", "ratio", joins["escalation_ratio"]),
        Measurement("procs.worker_deaths", "count", rt.worker_deaths),
        Measurement("procs.redispatched", "count", rt.tasks_redispatched),
        Measurement("procs.divergences", "count", divergences),
    ]


def _obs_dist_arm(p: dict, enabled: bool) -> tuple[float, dict]:
    """One soak-shape run; the on arm also reports what it shipped home."""
    import contextlib
    import re

    from .. import obs
    from ..runtime.procs import ProcessRuntime

    with obs.enabled() if enabled else contextlib.nullcontext(None) as session:
        rt = ProcessRuntime(workers=p["workers"], sidecar="auto")
        # rt.run covers shutdown: the on arm's final stats pull and
        # remote-ring absorb are inside the clock
        t0 = time.perf_counter()
        rt.run(_procs_root(rt, p, engine_arg=False))
        elapsed = time.perf_counter() - t0
        if session is None:
            return elapsed, {}
        events = (session.to_chrome_trace() or {"traceEvents": []}).get("traceEvents", [])
        fleet = rt.fleet_metrics()
        sources: set = set()
        for group in ("counters", "gauges", "histograms"):
            for name in fleet.get(group, {}):
                sources.update(re.findall(r'(process|worker)="([^"]*)"', name))
        return elapsed, {
            "trace_events": len(events),
            "trace_pids": len({e["pid"] for e in events if "pid" in e}),
            "metric_sources": len(sources),
        }


def obs_dist_suite(scale: str) -> list[Measurement]:
    """A factor means nothing if the telemetry never crossed the process
    boundary: the on arm must ship a merged trace with more than one
    track and a fleet snapshot with more than one labelled source."""
    p = OBS_DIST_PARAMS[scale]
    arms: dict[str, list[float]] = {"off": [], "on": []}
    payload: dict = {}
    for _ in range(3):
        arms["off"].append(_obs_dist_arm(p, False)[0])
        elapsed, payload = _obs_dist_arm(p, True)
        arms["on"].append(elapsed)
    if payload["trace_events"] <= 0 or payload["trace_pids"] <= 1 or payload["metric_sources"] <= 1:
        raise RuntimeError(f"the on arm shipped no distributed payload: {payload}")
    return [
        Measurement("obs_dist.off.time", "s", median(arms["off"]), arms["off"], dict(p)),
        Measurement("obs_dist.on.time", "s", median(arms["on"]), arms["on"], {**p, **payload}),
        Measurement("obs_dist.factor", "x", median(arms["on"]) / median(arms["off"])),
    ]


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------
#: *programs* seeded chaos programs journalled under ``policy=None`` feed
#: the predictor; the simulator arm runs a width x rounds fork fan
#: *sim_repetitions* times on each runtime.  Both scales run this shape.
PREDICT_PARAMS = {
    "programs": 12,
    "seed": 0,
    "max_schedules": 256,
    "sim_width": 12,
    "sim_rounds": 24,
    "sim_repetitions": 5,
}


def _fan(rt, width: int, rounds: int) -> int:
    """*rounds* waves of *width* no-op leaves, every one joined."""

    def leaf(i: int) -> int:
        return i

    def root():
        total = 0
        for _ in range(rounds):
            for future in [rt.fork(leaf, i) for i in range(width)]:
                total += yield future
        return total

    return rt.run(root)


def predict_suite(scale: str) -> list[Measurement]:
    """Events/s through the whole predictor (partial order, cycle search,
    simulator realization, per-policy witness replay), and the recording
    FIFO ``SimRuntime(seed=None)`` against ``CooperativeRuntime`` on the
    same schedule, best of the repetitions."""
    from ..predict import predict_deadlocks
    from ..runtime.cooperative import CooperativeRuntime
    from ..runtime.sim import SimRuntime
    from ..testing.chaos import run_predict_program
    from ..tools.journal import read_journal

    p = PREDICT_PARAMS
    with tempfile.TemporaryDirectory(prefix="repro-predict-bench-") as tmp:
        paths = [f"{tmp}/predict-{p['seed'] + k}.jsonl" for k in range(p["programs"])]
        for k, path in enumerate(paths):
            run_predict_program(p["seed"] + k, path)
        events = sum(len(read_journal(path).records) for path in paths)
        t0 = time.perf_counter()
        reports = [predict_deadlocks(path, max_schedules=p["max_schedules"]) for path in paths]
        elapsed = time.perf_counter() - t0
    flagged = sum(1 for r in reports if r.flagged)
    predictions = sum(len(r.predictions) for r in reports)
    if len(reports) != p["programs"] or events <= 0 or flagged < 1 or predictions < flagged:
        raise RuntimeError(
            f"the corpus exercised nothing: {len(reports)} journals, {events} events, "
            f"{flagged} flagged, {predictions} predictions"
        )

    width, rounds = p["sim_width"], p["sim_rounds"]
    expected = rounds * sum(range(width))
    runtimes = {"coop": lambda: CooperativeRuntime(None), "sim": lambda: SimRuntime(None, seed=None)}
    arms: dict[str, list[float]] = {"coop": [], "sim": []}
    for _ in range(p["sim_repetitions"]):
        for arm, make in runtimes.items():
            t0 = time.perf_counter()
            if _fan(make(), width, rounds) != expected:
                raise RuntimeError(f"{arm} fan returned the wrong total")
            arms[arm].append(time.perf_counter() - t0)
    return [
        Measurement(
            "predict.events_per_s", "1/s", events / elapsed,
            params={**p, "events": events, "flagged": flagged, "predictions": predictions},
        ),
        Measurement("predict.coop.time", "s", min(arms["coop"]), arms["coop"]),
        Measurement("predict.sim.time", "s", min(arms["sim"]), arms["sim"]),
        Measurement("predict.sim_overhead", "x", min(arms["sim"]) / min(arms["coop"])),
    ]


#: every suite, in the order a run measures them
SUITES: dict[str, Callable[[str], list[Measurement]]] = {
    "hotpath": hotpath_suite,
    "runtime": runtime_suite,
    "telemetry": telemetry_suite,
    "service": service_suite,
    "procs": procs_suite,
    "obs_dist": obs_dist_suite,
    "predict": predict_suite,
}
