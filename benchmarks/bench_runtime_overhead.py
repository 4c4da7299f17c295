"""Experiment E7 — end-to-end runtime overhead and the unwind bound.

Measures whole programs on the real runtimes with the supervision layer
in the loop, and *asserts* the perf properties the event-driven runtime
rewrite claims:

* the join-latency microshape (a fork-chain unwind where every wakeup
  gates the next) costs far less than one 50 ms poll tick beyond its
  leaf sleep — lagging wakeups would compound up the chain;
* TJ-SP's end-to-end geomean overhead over ``policy=None`` on the
  Table-2-style configs stays under a stated bound — the number the
  paper's 1.06x headline rests on;
* the crash-consistent trace journal costs at most 1.25x on the fork
  chain — the journal's durability worst case, since every level blocks
  and so pays a critical flush-before-sleep ``block`` record on top of
  fork/verdict/unblock/join;
* the microshape's program result is checked on every repetition, so a
  wait that mis-delivers a wakeup cannot pass by being fast.

The run also emits ``BENCH_runtime.json`` (raw samples, via
``repro.analysis.io``) so every future PR has a stored perf trajectory;
``python -m repro.tools.cli bench-runtime`` produces the same file from
the command line, and running this file directly (``python
benchmarks/bench_runtime_overhead.py --smoke``) delegates to that CLI —
which is what the ``runtime-bench-smoke`` CI job does.
"""

from __future__ import annotations

import os
import sys
import time

if __name__ == "__main__":  # script mode: make `repro` importable
    _SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)

import pytest

from repro.analysis.io import runtime_from_json, save_runtime
from repro.analysis.runtime_overhead import (
    JOURNAL_MODES,
    OVERHEAD_PARAMS,
    RUNTIME_POLICIES,
    measure_join_chain,
    overhead_factor,
    render_runtime_table,
    run_runtime_suite,
)

#: end-to-end TJ-SP geomean overhead bound on these configs (measured
#: ~1.05x on an idle machine; the bound leaves room for CI noise while
#: still catching a runtime-layer regression outright)
TJSP_OVERHEAD_BOUND = 2.0

#: journal-on vs journal-off bound on the fork chain (measured ~1.03x;
#: every chain level pays the journal's priciest path — a critical
#: flush-before-sleep block record — so a breach here means the write
#: path itself regressed, e.g. per-record fsync or unbatched writes)
JOURNAL_OVERHEAD_GATE = 1.25

OUTPUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_runtime.json"
)


@pytest.fixture(scope="module")
def result():
    t0 = time.perf_counter()
    res = run_runtime_suite(repetitions=3)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"runtime suite must stay brisk (took {elapsed:.1f}s)"
    return res


def test_emits_bench_runtime_json(result):
    save_runtime(result, OUTPUT)
    with open(OUTPUT) as fh:
        loaded = runtime_from_json(fh.read())
    assert set(loaded.join_chain) == {"event"}
    assert len(loaded.reports) == len(OVERHEAD_PARAMS)
    for m in loaded.join_chain.values():
        assert m.times
    for report in loaded.reports:
        assert report.baseline.times
        for policy in RUNTIME_POLICIES:
            assert report.policies[policy].times
    assert set(loaded.journal) == set(JOURNAL_MODES)
    for m in loaded.journal.values():
        assert m.times
    # the serialised numbers must survive the round trip exactly
    assert loaded.join_chain["event"].best_time == pytest.approx(
        result.join_chain["event"].best_time
    )
    assert loaded.overhead("TJ-SP") == pytest.approx(result.overhead("TJ-SP"))
    assert loaded.journal_overhead == pytest.approx(result.journal_overhead)


def test_event_unwind_is_tickless(result):
    """The event-driven unwind costs far less than one 50 ms poll tick
    beyond the leaf sleep, even with a whole chain of joins stacked."""
    print("\n" + render_runtime_table(result))
    assert result.join_chain["event"].unwind_overhead < 0.05


def test_tjsp_end_to_end_overhead_bound(result):
    """TJ-SP whole-program overhead stays bounded on the smoke-scale
    configs (the paper-scale analogue of Table 2's 1.06x geomean)."""
    factor = result.overhead("TJ-SP")
    assert factor <= TJSP_OVERHEAD_BOUND, (
        f"TJ-SP end-to-end overhead regressed to {factor:.3f}x "
        f"(bound: {TJSP_OVERHEAD_BOUND}x over policy=None)"
    )


def test_journal_overhead_gate(result):
    """The trace journal's durability worst case stays under 1.25x."""
    factor = result.journal_overhead
    assert factor <= JOURNAL_OVERHEAD_GATE, (
        f"journal-on overhead regressed to {factor:.3f}x on the fork chain "
        f"(gate: {JOURNAL_OVERHEAD_GATE}x over journal-off)"
    )
    # and the journal-on runs actually journalled something
    assert result.journal["on"].records > 0
    assert result.journal["off"].records == 0


def test_every_policy_reported(result):
    """Each report carries a factor for every policy in the grid."""
    for report in result.reports:
        for policy in RUNTIME_POLICIES:
            assert overhead_factor(report, policy) > 0


def test_smoke_suite_runs_fast():
    """The CI smoke probe (one microshape cell) completes quickly."""
    t0 = time.perf_counter()
    m = measure_join_chain(depth=4, leaf_sleep=0.01, repetitions=1)
    assert time.perf_counter() - t0 < 10.0
    assert m.times


if __name__ == "__main__":
    from repro.tools.cli import main

    argv = sys.argv[1:]
    cli_args = ["bench-runtime", "--json", OUTPUT]
    if "--smoke" in argv:
        argv.remove("--smoke")
        cli_args.append("--smoke")
    cli_args += [
        "--max-overhead",
        str(TJSP_OVERHEAD_BOUND),
        "--max-journal-overhead",
        str(JOURNAL_OVERHEAD_GATE),
    ] + argv
    sys.exit(main(cli_args))
