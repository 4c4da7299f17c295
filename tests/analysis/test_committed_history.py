"""The committed benchmark records still load through ``repro.analysis.io``.

``BENCH_runtime.json`` and ``BENCH_hotpath.json`` at the repository root
are the stored perf trajectory.  They outlive the code that wrote them:
older records hold a ``"polling"`` join-chain arm, a procs
``spawn_paths`` field and hotpath rows of the object-based TJ-SP policy,
all of which name implementations that have since been deleted.
Loading and rendering them must keep working.
"""

import json
from pathlib import Path

from repro.analysis.hotpath import render_hotpath_table
from repro.analysis.io import load_hotpath, load_runtime
from repro.analysis.runtime_overhead import render_runtime_table

ROOT = Path(__file__).resolve().parents[2]


def _raw(name: str) -> dict:
    return json.loads((ROOT / name).read_text())


def test_bench_runtime_json_loads_and_renders():
    raw = _raw("BENCH_runtime.json")
    result = load_runtime(str(ROOT / "BENCH_runtime.json"))
    modes = [m["mode"] for m in raw["join_chain"]["measurements"]]
    assert sorted(result.join_chain) == sorted(modes)
    for mode, m in result.join_chain.items():
        assert m.mode == mode and m.times
    assert len(result.reports) == len(raw["overhead"]["reports"])
    if "procs" in raw:
        stored = raw["procs"]["measurement"]
        assert result.procs.tasks == stored["tasks"]
        assert result.procs.cross_joins == stored["cross_joins"]
    assert render_runtime_table(result)


def test_bench_hotpath_json_loads_and_renders():
    raw = _raw("BENCH_hotpath.json")
    measurements, params = load_hotpath(str(ROOT / "BENCH_hotpath.json"))
    assert [(m.shape, m.policy) for m in measurements] == [
        (m["shape"], m["policy"]) for m in raw["measurements"]
    ]
    assert params == raw.get("params", {})
    assert all(m.times for m in measurements)
    assert render_hotpath_table(measurements)
