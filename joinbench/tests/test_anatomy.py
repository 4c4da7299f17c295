"""Tests of the join-anatomy benchmark itself.

Run from the repository root: ``python -m pytest joinbench/tests``.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from anatomy import common, procs_sidecar, verify_replay
from anatomy.spans import SpanRecorder, TracedPolicy, sweep
from repro.armus.hybrid import HybridVerifier
from repro.benchsuite import ALL_BENCHMARKS
from repro.core.policy import make_policy

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def test_same_seed_same_stream_other_seed_other_stream():
    a = verify_replay.generate(7, **verify_replay.SMOKE)
    b = verify_replay.generate(7, **verify_replay.SMOKE)
    c = verify_replay.generate(8, **verify_replay.SMOKE)
    assert a.ops == b.ops and a.labelled == b.labelled
    assert a.ops != c.ops
    assert procs_sidecar.reference(procs_sidecar.SMOKE, 7) == procs_sidecar.reference(
        procs_sidecar.SMOKE, 7
    )
    assert procs_sidecar.reference(procs_sidecar.SMOKE, 7) != procs_sidecar.reference(
        procs_sidecar.SMOKE, 8
    )


def _verdicts(policy, stream):
    """Every labelled join's verdict, scalar and batched, on *policy*."""
    hv = HybridVerifier(policy)
    v = [hv.on_init()]
    for op in stream.ops:
        if op[0] == verify_replay.FORK:
            v.append(hv.on_fork(v[op[1]]))
    scalar = [hv.verifier.check_join(v[a], v[b]) for a, b, _ in stream.labelled]
    rng = random.Random(1)
    batches = [rng.sample(range(len(v)), 6) for _ in range(50)]
    batched = [hv.verifier.check_joins(v[j[0]], [v[x] for x in j[1:]]) for j in batches]
    return scalar, batched


@pytest.mark.parametrize("backend", ["c", "py"])
def test_policy_proxy_gives_the_bare_policys_verdicts(monkeypatch, backend):
    monkeypatch.setenv("REPRO_TJ_BACKEND", "auto" if backend == "c" else "py")
    stream = verify_replay.generate(3, **verify_replay.SMOKE)
    rec = SpanRecorder()
    bare = _verdicts(make_policy("TJ-SP"), stream)
    proxied = _verdicts(TracedPolicy(make_policy("TJ-SP"), rec), stream)
    assert bare == proxied
    assert [ok for _, _, ok in stream.labelled] == bare[0]
    assert len(rec.durations("core.permits")) == len(stream.labelled)


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert tuple(ALL_BENCHMARKS) == common.PROGRAMS


def test_sweep_partitions_the_window():
    intervals = [("core", 10, 20), ("armus", 5, 30), ("procs", 25, 60)]
    parts, rest = sweep(intervals, 0, 50, ("core", "armus", "procs"))
    assert parts["core"] == 10 and parts["armus"] == 15 and parts["procs"] == 20
    assert rest == 5 and sum(parts.values()) + rest == 50


def test_hist_quantile_interpolates_within_the_bucket():
    hist = {"buckets": [10, 20, 40], "counts": [0, 4, 4, 0], "count": 8}
    assert common.hist_quantile(hist, 0.5) == 20
    assert common.hist_quantile(hist, 0.75) == 30
    assert common.hist_quantile(None, 0.5) == 0.0


def _run(args, cwd=ROOT, timeout=240):
    return subprocess.run(
        [sys.executable] + args, cwd=cwd, capture_output=True, text=True, timeout=timeout
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["paper-suite", "verify-replay", "procs-sidecar"])
def test_smoke_run_passes_its_checks(workload, trace):
    proc = _run([RUN, "--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    catalogue = common.PER_LAYER if trace else common.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == catalogue
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "joinbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["joinbench/run.py", "--workload", "verify-replay", "--seed", "1",
                 "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
