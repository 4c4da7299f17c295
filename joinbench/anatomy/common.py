"""Statistics, the metric catalogue, the machine fingerprint, the check ledger.

Every workload reports through the same pieces: a :class:`Ledger` of
attempted/failed operations (correctness and path checks), timings
summarised by :func:`median`/:func:`quantile`, and the metric catalogue
below, which is the single list ``BENCHMARK.json`` must match.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from typing import Callable, Iterable, Sequence

#: the paper's Table 2 programs, in the order a paper-suite pass runs them
PROGRAMS = ("Jacobi", "Smith-Waterman", "Crypt", "Strassen", "Series", "NQueens")

#: end-to-end metrics (reported with tracing off): name -> unit.  Pass
#: wall time and joins/s are not among them: on a shared host their
#: run-to-run spread exceeds any admissible bound (see the README), so
#: they are reported, unbounded, by the traced run; the interleaved
#: ratios below cancel the host's speed drift.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "overhead_x": "x",
    "peak_alloc_mb": "MB",
    "mem_overhead_x": "x",
}


def _per_layer() -> dict[str, str]:
    m: dict[str, str] = {}

    def pct(base: str, unit: str) -> None:
        m[base + ".p50"] = unit
        m[base + ".p99"] = unit

    # the whole pass, from the traced run's untraced passes
    m["wall_s"] = "s"
    m["joins_per_s"] = "1/s"

    # core: policy kernel and Verifier
    pct("core.fork_ns", "ns")
    pct("core.check_ns", "ns")
    m["core.batch_ns_per_join"] = "ns"
    m["core.self_s"] = "s"
    m["core.share"] = "ratio"
    m["core.forks"] = "count"
    m["core.joins_checked"] = "count"
    m["core.flag_ratio"] = "ratio"
    m["core.cache_hit_ratio"] = "ratio"
    m["core.cache_evictions"] = "count"
    m["core.space_units"] = "count"
    m["core.py.check_ns.p50"] = "ns"
    # armus: the cycle-detection fallback
    pct("armus.begin_join_ns", "ns")
    pct("armus.cycle_check_ns", "ns")
    m["armus.cycle_checks"] = "count"
    m["armus.false_positives"] = "count"
    m["armus.deadlocks_avoided"] = "count"
    m["armus.fp_ratio"] = "ratio"
    m["armus.self_s"] = "s"
    m["armus.share"] = "ratio"
    # runtime: threaded / cooperative / supervisor
    m["runtime.base_wall_s"] = "s"
    pct("runtime.fork_ns", "ns")
    pct("runtime.blocked_wait_ns", "ns")
    m["runtime.blocked_waits"] = "count"
    m["runtime.wakeups_per_wait"] = "ratio"
    m["runtime.thread_reuse"] = "ratio"
    m["runtime.self_s"] = "s"
    m["runtime.share"] = "ratio"
    # benchsuite: the six programs
    for name in PROGRAMS:
        m[f"benchsuite.{name}.wall_s"] = "s"
    # procs: multi-process runtime and shared-memory mirror
    m["procs.spawn_s"] = "s"
    pct("procs.queue_ms", "ms")
    pct("procs.cross_join_ms", "ms")
    pct("procs.local_join_ms", "ms")
    m["procs.local_joins"] = "count"
    m["procs.cross_joins"] = "count"
    m["procs.degraded_joins"] = "count"
    m["procs.escalation_ratio"] = "ratio"
    m["procs.worker_deaths"] = "count"
    m["procs.redispatched"] = "count"
    m["procs.self_s"] = "s"
    m["procs.share"] = "ratio"
    # service: wire, session, server, client
    pct("service.check_rtt_us", "us")
    pct("service.event_check_rtt_us", "us")
    pct("service.batch_rtt_us", "us")
    m["service.refusals"] = "count"
    m["service.protocol_errors"] = "count"
    m["service.journal_flush_ns.p50"] = "ns"
    m["service.explained_share"] = "ratio"
    # obs and the part of the traced wall no layer span covers
    m["obs.trace_overhead_x"] = "x"
    m["unattributed.share"] = "ratio"
    return m


#: per-layer metrics (reported by the traced run): name -> unit.  Every
#: workload reports all of them; a layer a workload never reaches reads 0.
PER_LAYER: dict[str, str] = _per_layer()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def hist_quantile(hist: "dict | None", q: float) -> float:
    """Quantile of a ``repro.obs`` histogram snapshot (linear within a
    bucket, Prometheus style); 0.0 when it holds no observations."""
    if not hist or not hist.get("count"):
        return 0.0
    bounds, counts = hist["buckets"], hist["counts"]
    rank = q * hist["count"]
    seen = 0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            if i >= len(bounds):  # overflow bucket: the last bound is all we know
                return float(bounds[-1])
            lower = bounds[i - 1] if i else 0.0
            return lower + (bounds[i] - lower) * (rank - seen) / c
        seen += c
    return float(bounds[-1])


def registry_histogram(snapshot: dict, name: str) -> "dict | None":
    """Merge every labelled series of histogram *name* in a registry
    snapshot into one (the verifier labels its series by policy)."""
    merged = None
    for key, h in snapshot.get("histograms", {}).items():
        if key == name or key.startswith(name + "{"):
            if merged is None:
                merged = {"buckets": list(h["buckets"]), "counts": list(h["counts"]),
                          "count": h["count"], "sum": h["sum"]}
            else:
                merged["counts"] = [a + b for a, b in zip(merged["counts"], h["counts"])]
                merged["count"] += h["count"]
                merged["sum"] += h["sum"]
    return merged


def alternate(arms: Sequence[Callable[[], float]], seconds: float, min_rounds: int = 1) -> list[list[float]]:
    """Run the arms round-robin until *seconds* have passed.

    Each arm runs one pass and returns its own wall time.  The starting
    arm rotates every round so neither arm always runs first after the
    other has warmed (or polluted) the caches.
    """
    samples: list[list[float]] = [[] for _ in arms]
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        order = list(range(len(arms)))
        shift = rounds % len(arms)
        for i in order[shift:] + order[:shift]:
            samples[i].append(arms[i]())
        rounds += 1
    return samples


# ----------------------------------------------------------------------
# correctness and path checks
# ----------------------------------------------------------------------
class Ledger:
    """Attempted/failed operation counts plus the reason for each failure.

    Operations are the workload's checked outputs (program results,
    verdicts, subtree results); path checks count as one operation each,
    so a workload that missed its path is failed, never skipped.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def ops(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} failed")

    def check(self, ok: bool, what: str) -> None:
        self.ops(1, 0 if ok else 1, what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


# ----------------------------------------------------------------------
# machine fingerprint
# ----------------------------------------------------------------------
def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(("_build", "__pycache__")))
        for name in sorted(filenames):
            if name.endswith((".py", ".c")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(root: str, backend: str) -> dict:
    """Who measured: cores, interpreter, NumPy, TJ backend, code version.

    Outside a git checkout the commit reads ``unknown``; the digest of
    ``src/repro`` still identifies the code that ran.
    """
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "tj_backend": backend,
        "commit": _git_commit(root),
        "source_digest": _source_digest(root),
        "platform": sys.platform,
    }


def result_line(ledger: Ledger, metrics: dict[str, tuple[float, str]]) -> str:
    """The one-line JSON result the benchmark prints last."""
    return json.dumps(
        {
            "correct": ledger.correct,
            "attempted": int(ledger.attempted),
            "failed": int(ledger.failed),
            "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def per_layer_defaults() -> dict[str, float]:
    """Every per-layer metric at 0: the reading of a layer not on the path."""
    return {name: 0.0 for name in PER_LAYER}


def with_units(values: dict[str, float], catalogue: dict[str, str]) -> dict[str, tuple[float, str]]:
    missing = set(catalogue) - set(values)
    extra = set(values) - set(catalogue)
    if missing or extra:
        raise KeyError(f"metric mismatch: missing {sorted(missing)}, unknown {sorted(extra)}")
    return {name: (values[name], catalogue[name]) for name in catalogue}


def percentiles(prefix: str, samples: Iterable[float], scale: float = 1.0) -> dict[str, float]:
    """``<prefix>.p50`` and ``<prefix>.p99`` of *samples* times *scale*."""
    xs = [s * scale for s in samples]
    return {prefix + ".p50": quantile(xs, 0.5), prefix + ".p99": quantile(xs, 0.99)}
