"""The committed trajectory loads and renders, run by run.

``BENCH_trajectory.json`` at the repository root outlives the code that
wrote each run.  Its first two runs are the converted
``BENCH_hotpath.json`` and ``BENCH_runtime.json``: they hold rows of
implementations that have since been deleted (``TJ-SP-obj``, the
``polling`` join-chain arm, a procs ``spawn_paths`` field) and were
written before runs recorded who measured them.  Every later run was
appended by ``repro bench-record`` and carries a full fingerprint.
"""

from pathlib import Path

from repro.analysis.bounds import FAIL, NOT_ENFORCEABLE, PASS
from repro.analysis.record import load_trajectory, render_run

ROOT = Path(__file__).resolve().parents[2]
RUNS = load_trajectory(str(ROOT / "BENCH_trajectory.json"))
FINGERPRINT = ("nproc", "python", "numpy", "tj_backend", "commit", "source_digest", "platform")


def _names(run) -> set:
    return {m.name for m in run["measurements"]}


def test_every_run_loads_and_renders():
    assert len(RUNS) >= 3
    for run in RUNS:
        assert run["measurements"]
        text = render_run(run)
        for m in run["measurements"]:
            assert m.name in text


def test_bench_hotpath_json_loads_and_renders():
    run = RUNS[0]
    assert set(run["fingerprint"]) == set(FINGERPRINT)
    assert set(run["fingerprint"].values()) == {"unrecorded"}
    shapes = ("join-heavy", "fork-heavy", "deep-tree", "wide-tree")
    policies = ("TJ-SP", "TJ-SP-obj", "TJ-SP-legacy", "TJ-GT", "TJ-JP", "TJ-OM", "KJ-VC", "KJ-SS")
    assert {f"hotpath.{s}.{p}.time" for s in shapes for p in policies} <= _names(run)
    assert all(m.samples for m in run["measurements"] if m.unit == "s")
    assert "hotpath.join-heavy.speedup" in render_run(run)


def test_bench_runtime_json_loads_and_renders():
    run = RUNS[1]
    assert set(run["fingerprint"].values()) == {"unrecorded"}
    by_name = {m.name: m for m in run["measurements"]}
    assert {"runtime.join_chain.time", "runtime.join_chain_polling.time"} <= set(by_name)
    # the sidecar-less soak: every cross-process join degraded
    assert by_name["procs.tasks"].params["spawn_paths"] == "shm"
    assert by_name["procs.degraded_joins"].value == by_name["procs.cross_joins"].value
    assert render_run(run)


def test_recorded_runs_carry_a_fingerprint_and_their_rows():
    for run in RUNS[2:]:
        finger = run["fingerprint"]
        assert set(finger) == set(FINGERPRINT)
        assert all(v not in ("", None, "unrecorded") for v in finger.values())
        assert run["scale"] in ("full", "smoke")
        assert run["bounds"]
        assert {r["status"] for r in run["bounds"]} <= {PASS, FAIL, NOT_ENFORCEABLE}
