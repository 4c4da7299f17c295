"""Cross-process determinism of the schedule explorer and the simulator.

Same seed, two fresh interpreters: ``explore`` must enumerate the
identical schedules in the identical order, seeded ``SimRuntime`` runs
must draw the identical random schedules with the identical outcomes
and decision traces.  This is what makes a seed (or a witness file) a
portable repro: hash randomisation or interpreter state must not leak
into any scheduling decision.
"""

import json
import os
import subprocess
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

_CHILD = r"""
import json
from types import SimpleNamespace

from repro.runtime.explore import explore
from repro.runtime.sim import SimRuntime


def program(rt):
    out = []

    def worker(name):
        yield None
        out.append(name)
        return name

    def main():
        futures = [rt.fork(worker, n) for n in ("a", "b")]
        for future in futures:
            yield future
        return tuple(out)

    return main


def run(schedule=None, seed=None):
    rt = SimRuntime("TJ-SP", schedule=schedule, seed=seed)
    result = rt.run(program(rt))
    return SimpleNamespace(schedule=rt.recorded_schedule, result=result, steps=rt.steps)


def facts(outcome):
    return {
        "result": repr(outcome.result),
        "choices": list(outcome.schedule.choices),
        "widths": list(outcome.schedule.widths),
        "steps": outcome.steps,
    }


print(json.dumps({
    "explored": [facts(o) for o in explore(run)],
    "fuzzed": [facts(run(seed=k)) for k in range(20)],
    "sim": facts(run(seed=99)),
}, sort_keys=True))
"""


def _run_child() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC
    # Different hash seeds per child: determinism must not lean on
    # PYTHONHASHSEED being pinned.
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_explorers_and_simulator_agree_across_processes():
    first = _run_child()
    second = _run_child()
    assert first == second
    # sanity: the child actually explored multiple interleavings
    assert len(first["explored"]) > 1
    assert len(first["fuzzed"]) == 20
    assert first["sim"]["widths"]  # the simulator faced real decisions
