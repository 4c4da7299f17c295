#!/usr/bin/env python3
"""Join-anatomy benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 joinbench/run.py --workload verify-replay --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that reports the per-layer
metrics, prints the self-time table and writes a Chrome trace under
``joinbench/out/``.  The last line of standard output is the JSON
result; the exit code is 0 only when every correctness and path check
passed.  See ``joinbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: workload name -> module under anatomy/
WORKLOADS = {
    "paper-suite": "paper_suite",
    "verify-replay": "verify_replay",
    "procs-sidecar": "procs_sidecar",
}

#: set-up is repeated this often per run and its median reported
SETUP_REPS = 3

#: spans kept in memory for the Chrome trace
KEEP_SPANS = 40_000


class Context:
    """What a workload gets: its inputs, the ledger, and reporting hooks."""

    def __init__(self, args, setup_base: float) -> None:
        from anatomy.common import Ledger

        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.setup_reps = 1 if args.smoke else SETUP_REPS
        self.setup_base = setup_base
        self.keep_spans = KEEP_SPANS
        self.out_dir = OUT
        self.ledger = Ledger()
        self.backend = "unknown"

    def log(self, message: str) -> None:
        print(message, flush=True)

    def check_backend(self, policy, expected: "str | None" = None) -> None:
        """The backend the policy reports is the one that loaded: the
        compiled or pure-Python kernel, or *expected* (the shared-memory
        mirror of the multi-process runtime)."""
        self.backend = policy.backend
        expected = expected or loaded_kernel()
        self.ledger.check(
            policy.backend == expected,
            f"{self.workload}: reported TJ backend {policy.backend!r} is the loaded one ({expected!r})",
        )

    def out_path(self, kind: str, ext: str = "json") -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return os.path.join(
            self.out_dir, f"{kind}-{self.workload}-seed{self.seed}-trace{int(self.trace)}.{ext}"
        )

    def write_trace(self, spans, process_names) -> None:
        """Write the traced run's spans as a validated Chrome trace."""
        from anatomy.spans import chrome_trace
        from repro.tools.trace_export import validate_chrome_trace

        spans = list(spans)
        base = min((s[3] for s in spans), default=0)
        doc = chrome_trace(spans, base, process_names)
        problems = validate_chrome_trace(doc)
        self.ledger.check(not problems, f"{self.workload}: Chrome trace validates {problems[:3]}")
        path = self.out_path("trace")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.log(f"chrome trace: {os.path.relpath(path, ROOT)} ({len(doc['traceEvents'])} events)")


def loaded_kernel() -> str:
    """``"c"`` when the compiled TJ-SP kernel loaded in this process, else ``"py"``."""
    from repro.core import _cbuild

    return "c" if _cbuild.compiled_module() is not None else "py"


def build_kernel() -> None:
    """Compile the C kernel ahead of the timed set-up (a no-op once built)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run(
        [sys.executable, "-c", "from repro.core._cbuild import compiled_module; compiled_module()"],
        cwd=ROOT, env=env, timeout=600, check=False,
    )


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"joinbench: no repro package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    build_kernel()
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import repro  # noqa: F401
    from repro.core import _cbuild

    from anatomy import common

    workload = importlib.import_module(f"anatomy.{WORKLOADS[args.workload]}")
    _cbuild.compiled_module()  # kernel load
    ctx = Context(args, setup_base=time.perf_counter() - t0)

    try:
        values = workload.run(ctx)
    except Exception:  # the boundary: report and fail, never print a result
        traceback.print_exc()
        return 1
    catalogue = common.PER_LAYER if ctx.trace else common.END_TO_END
    metrics = common.with_units(values, catalogue)
    finger = common.fingerprint(ROOT, loaded_kernel())
    record = {
        "workload": args.workload,
        "policy_backend": ctx.backend,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(ctx.trace),
        "fingerprint": finger,
        "problems": ctx.ledger.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(ctx.out_path("result"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print("fingerprint: " + json.dumps(finger))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34}{value:>16.6g} {unit}")
    for problem in ctx.ledger.problems:
        print(f"FAILED CHECK: {problem}")
    print(common.result_line(ctx.ledger, metrics), flush=True)
    return 0 if ctx.ledger.correct else 1


if __name__ == "__main__":
    sys.exit(main())
