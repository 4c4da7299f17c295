"""Raw-data serialisation of benchmark reports (artifact A.5 style).

The paper's artifact writes a log of raw samples that a second script
aggregates.  These helpers serialise :class:`BenchmarkReport` objects to
JSON (all samples preserved, so aggregation can be redone offline) and
load them back.
"""

from __future__ import annotations

import json
from typing import Sequence

from ..benchsuite.harness import BenchmarkReport, PolicyMeasurement

__all__ = [
    "reports_to_json",
    "reports_from_json",
    "save_reports",
    "load_reports",
    "hotpath_to_json",
    "hotpath_from_json",
    "save_hotpath",
    "load_hotpath",
    "runtime_to_json",
    "runtime_from_json",
    "save_runtime",
    "load_runtime",
]

_SCHEMA_VERSION = 1
#: v2 added the per-measurement "backend" tag ("c"/"py" kernel).  v1
#: files still load, with the backend defaulting to "py".
_HOTPATH_SCHEMA_VERSION = 2
_HOTPATH_SCHEMAS = (1, 2)
#: v2 added the journal-overhead microshape block; v3 the telemetry
#: ("obs") block; v4 the remote-verification soak ("service") block;
#: v5 the multi-process soak ("procs"); v6 the prediction instrument;
#: v7 the distributed-telemetry ("obs_dist") block.  All are optional
#: on load — older files still load with the missing instruments
#: defaulting to unmeasured.
_RUNTIME_SCHEMA_VERSION = 7
_RUNTIME_SCHEMAS = (1, 2, 3, 4, 5, 6, 7)


def _measurement_dict(m: PolicyMeasurement) -> dict:
    return {
        "policy": m.policy,
        "times": m.times,
        "verified": m.verified,
        "peak_bytes": m.peak_bytes,
        "verifier_space_units": m.verifier_space_units,
        "false_positives": m.false_positives,
        "deadlocks_avoided": m.deadlocks_avoided,
        "joins_checked": m.joins_checked,
        "forks": m.forks,
    }


def _measurement_from(d: dict) -> PolicyMeasurement:
    return PolicyMeasurement(**d)


def reports_to_json(reports: Sequence[BenchmarkReport]) -> str:
    """Serialise reports (with every raw time sample) to a JSON string."""
    payload = {
        "schema": _SCHEMA_VERSION,
        "reports": [
            {
                "name": r.name,
                "params": {k: v for k, v in r.params.items()},
                "baseline": _measurement_dict(r.baseline),
                "policies": {p: _measurement_dict(m) for p, m in r.policies.items()},
            }
            for r in reports
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def reports_from_json(text: str) -> list[BenchmarkReport]:
    """Inverse of :func:`reports_to_json`."""
    payload = json.loads(text)
    if payload.get("schema") != _SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    out = []
    for r in payload["reports"]:
        out.append(
            BenchmarkReport(
                name=r["name"],
                params=r["params"],
                baseline=_measurement_from(r["baseline"]),
                policies={p: _measurement_from(m) for p, m in r["policies"].items()},
            )
        )
    return out


def save_reports(reports: Sequence[BenchmarkReport], path: str) -> None:
    with open(path, "w") as fh:
        fh.write(reports_to_json(reports))


def load_reports(path: str) -> list[BenchmarkReport]:
    with open(path) as fh:
        return reports_from_json(fh.read())


# ----------------------------------------------------------------------
# hot-path microbenchmark results (BENCH_hotpath.json)
# ----------------------------------------------------------------------
def hotpath_to_json(measurements, params=None) -> str:
    """Serialise :class:`~repro.analysis.hotpath.HotpathMeasurement` s.

    All raw repetition times are preserved (same philosophy as the
    Table 2 samples) so regressions can be re-analysed offline; the
    workload parameters are embedded so a stored file documents exactly
    what it measured.
    """
    payload = {
        "schema": _HOTPATH_SCHEMA_VERSION,
        "params": params or {},
        "measurements": [
            {
                "shape": m.shape,
                "policy": m.policy,
                "backend": m.backend,
                "times": m.times,
                "events": m.events,
            }
            for m in measurements
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def hotpath_from_json(text: str):
    """Inverse of :func:`hotpath_to_json`; returns (measurements, params)."""
    from .hotpath import HotpathMeasurement

    payload = json.loads(text)
    if payload.get("schema") not in _HOTPATH_SCHEMAS:
        raise ValueError(f"unsupported hotpath schema {payload.get('schema')!r}")
    measurements = [
        HotpathMeasurement(
            shape=m["shape"],
            policy=m["policy"],
            times=m["times"],
            events=m["events"],
            backend=m.get("backend", "py"),
        )
        for m in payload["measurements"]
    ]
    return measurements, payload.get("params", {})


def save_hotpath(measurements, path: str, params=None) -> None:
    with open(path, "w") as fh:
        fh.write(hotpath_to_json(measurements, params))


def load_hotpath(path: str):
    with open(path) as fh:
        return hotpath_from_json(fh.read())


# ----------------------------------------------------------------------
# end-to-end runtime overhead results (BENCH_runtime.json)
# ----------------------------------------------------------------------
def runtime_to_json(result) -> str:
    """Serialise a :class:`~repro.analysis.runtime_overhead.RuntimeOverheadResult`.

    Both instruments keep every raw sample — the microshape's per-mode
    repetition times and the full Table-2-style per-policy samples — so
    a stored file can be re-analysed offline, and the parameters are
    embedded so it documents exactly what it measured.
    """
    payload = {
        "schema": _RUNTIME_SCHEMA_VERSION,
        "join_chain": {
            "params": dict(result.join_chain_params),
            "measurements": [
                {
                    "mode": m.mode,
                    "depth": m.depth,
                    "leaf_sleep": m.leaf_sleep,
                    "times": m.times,
                }
                for m in result.join_chain.values()
            ],
        },
        "overhead": {
            "params": {k: dict(v) for k, v in result.overhead_params.items()},
            "reports": [
                {
                    "name": r.name,
                    "params": {k: v for k, v in r.params.items()},
                    "baseline": _measurement_dict(r.baseline),
                    "policies": {
                        p: _measurement_dict(m) for p, m in r.policies.items()
                    },
                }
                for r in result.reports
            ],
        },
    }
    if result.journal is not None:
        payload["journal"] = {
            "params": dict(result.journal_params),
            "measurements": [
                {
                    "mode": m.mode,
                    "depth": m.depth,
                    "leaf_sleep": m.leaf_sleep,
                    "times": m.times,
                    "records": m.records,
                }
                for m in result.journal.values()
            ],
        }
    if result.obs is not None:
        payload["obs"] = {
            "params": {k: dict(v) for k, v in result.obs_params.items()},
            "measurements": [
                {"shape": m.shape, "mode": m.mode, "times": m.times}
                for arms in result.obs.values()
                for m in arms.values()
            ],
        }
    if result.service is not None:
        s = result.service
        payload["service"] = {
            "params": dict(result.service_params),
            "measurement": {
                "joins": s.joins,
                "width": s.width,
                "batch": s.batch,
                "elapsed": s.elapsed,
                "rss_before_kb": s.rss_before_kb,
                "rss_after_kb": s.rss_after_kb,
                "rss_peak_kb": s.rss_peak_kb,
                "degradations": s.degradations,
                "reconciles": s.reconciles,
            },
        }
    if result.procs is not None:
        m = result.procs
        payload["procs"] = {
            "params": dict(result.procs_params),
            "measurement": {
                "tasks": m.tasks,
                "workers": m.workers,
                "dispatches": m.dispatches,
                "mids": m.mids,
                "leaves": m.leaves,
                "spin": m.spin,
                "elapsed": m.elapsed,
                "baseline_tasks": m.baseline_tasks,
                "baseline_elapsed": m.baseline_elapsed,
                "cpu_count": m.cpu_count,
                "local_joins": m.local_joins,
                "cross_joins": m.cross_joins,
                "degraded_joins": m.degraded_joins,
                "escalation_ratio": m.escalation_ratio,
                "worker_deaths": m.worker_deaths,
                "tasks_redispatched": m.tasks_redispatched,
                "divergences": m.divergences,
            },
        }
    if result.obs_dist is not None:
        m = result.obs_dist
        payload["obs_dist"] = {
            "params": dict(result.obs_dist_params),
            "measurement": {
                "workers": m.workers,
                "dispatches": m.dispatches,
                "mids": m.mids,
                "leaves": m.leaves,
                "spin": m.spin,
                "tasks": m.tasks,
                "off_times": m.off_times,
                "on_times": m.on_times,
                "trace_events": m.trace_events,
                "trace_pids": m.trace_pids,
                "metric_sources": m.metric_sources,
            },
        }
    if result.predict is not None:
        m = result.predict
        payload["predict"] = {
            "params": dict(result.predict_params),
            "measurement": {
                "programs": m.programs,
                "journals": m.journals,
                "events": m.events,
                "elapsed": m.elapsed,
                "flagged_programs": m.flagged_programs,
                "predictions": m.predictions,
                "sim_width": m.sim_width,
                "sim_rounds": m.sim_rounds,
                "sim_elapsed": m.sim_elapsed,
                "coop_elapsed": m.coop_elapsed,
            },
        }
    return json.dumps(payload, indent=2, sort_keys=True)


def runtime_from_json(text: str):
    """Inverse of :func:`runtime_to_json`; returns a RuntimeOverheadResult."""
    from .runtime_overhead import (
        JoinChainMeasurement,
        JournalOverheadMeasurement,
        ObsDistMeasurement,
        ObsOverheadMeasurement,
        PredictMeasurement,
        ProcsSoakMeasurement,
        RuntimeOverheadResult,
        ServiceSoakMeasurement,
    )

    payload = json.loads(text)
    if payload.get("schema") not in _RUNTIME_SCHEMAS:
        raise ValueError(f"unsupported runtime schema {payload.get('schema')!r}")
    chain = {
        m["mode"]: JoinChainMeasurement(
            mode=m["mode"],
            depth=m["depth"],
            leaf_sleep=m["leaf_sleep"],
            times=m["times"],
        )
        for m in payload["join_chain"]["measurements"]
    }
    reports = [
        BenchmarkReport(
            name=r["name"],
            params=r["params"],
            baseline=_measurement_from(r["baseline"]),
            policies={p: _measurement_from(m) for p, m in r["policies"].items()},
        )
        for r in payload["overhead"]["reports"]
    ]
    journal = None
    if "journal" in payload:
        journal = {
            m["mode"]: JournalOverheadMeasurement(
                mode=m["mode"],
                depth=m["depth"],
                leaf_sleep=m["leaf_sleep"],
                times=m["times"],
                records=m.get("records", 0),
            )
            for m in payload["journal"]["measurements"]
        }
    obs = None
    if "obs" in payload:
        obs = {}
        for m in payload["obs"]["measurements"]:
            obs.setdefault(m["shape"], {})[m["mode"]] = ObsOverheadMeasurement(
                shape=m["shape"], mode=m["mode"], times=m["times"]
            )
    service = None
    if "service" in payload:
        m = payload["service"]["measurement"]
        service = ServiceSoakMeasurement(
            joins=m["joins"],
            width=m["width"],
            batch=m["batch"],
            elapsed=m["elapsed"],
            rss_before_kb=m["rss_before_kb"],
            rss_after_kb=m["rss_after_kb"],
            rss_peak_kb=m.get("rss_peak_kb", m["rss_after_kb"]),
            degradations=m.get("degradations", 0),
            reconciles=m.get("reconciles", 0),
        )
    procs = None
    if "procs" in payload:
        m = dict(payload["procs"]["measurement"])
        # Older files name the retired shm/wire spawn-path choice.
        m.pop("spawn_paths", None)
        procs = ProcsSoakMeasurement(**m)
    predict = None
    if "predict" in payload:
        m = payload["predict"]["measurement"]
        predict = PredictMeasurement(**m)
    obs_dist = None
    if "obs_dist" in payload:
        m = payload["obs_dist"]["measurement"]
        obs_dist = ObsDistMeasurement(**m)
    return RuntimeOverheadResult(
        join_chain=chain,
        reports=reports,
        join_chain_params=payload["join_chain"].get("params", {}),
        overhead_params=payload["overhead"].get("params", {}),
        journal=journal,
        journal_params=payload.get("journal", {}).get("params", {}),
        obs=obs,
        obs_params=payload.get("obs", {}).get("params", {}),
        service=service,
        service_params=payload.get("service", {}).get("params", {}),
        procs=procs,
        procs_params=payload.get("procs", {}).get("params", {}),
        predict=predict,
        predict_params=payload.get("predict", {}).get("params", {}),
        obs_dist=obs_dist,
        obs_dist_params=payload.get("obs_dist", {}).get("params", {}),
    )


def save_runtime(result, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(runtime_to_json(result))


def load_runtime(path: str):
    with open(path) as fh:
        return runtime_from_json(fh.read())
