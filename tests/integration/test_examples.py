"""Smoke tests: every example script runs to completion.

The examples are the quickstart surface of the repository; they must
never rot.  (run_evaluation.py is the whole evaluation and too slow for
this sweep; CI's bench job runs ``python examples/run_evaluation.py
--quick`` in its "Documented reproduction command" step.)
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "divide_and_conquer.py",
    "map_reduce.py",
    "deadlock_recovery.py",
    "trace_analysis.py",
    "finish_constructs.py",
    "executable_proofs.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    proc = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"{script} failed:\n{proc.stdout}\n{proc.stderr}"
    assert proc.stdout.strip(), f"{script} produced no output"


def test_all_examples_accounted_for():
    """Every example on disk is either in the fast list or known-slow."""
    known = set(FAST_EXAMPLES) | {"run_evaluation.py"}
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == known
