"""Command-line entry point: ``python -m repro.tools.cli <command>``.

Commands
--------
``check <trace-file> [--policy TJ|KJ]``
    Validate a textual trace against a policy; report violations and
    whether the trace contains a Definition 3.9 deadlock.
``viz <trace-file> [--format tree|matrix|dot]``
    Render the fork tree (with TJ ranks), the TJ/KJ permission matrix,
    or Graphviz DOT.
``replay <trace-file> [--policy P] [--no-fallback]``
    Execute the trace on the deterministic simulator under a verifier
    and report completed/refused joins, fallback activity, and the
    blocked cycle of a deadlock no policy refused.
``bench <name> [--policy P] [--param k=v ...]``
    Run one benchmark once and print verification/fallback statistics.
``table1 [--sizes ...]``
    Regenerate the empirical complexity table (Table 1).
``table2 [--reps N] [--scale small|default] [--json PATH]``
    Regenerate the overhead table (Table 2); ``--json`` appends its
    records to a trajectory file.
``figure2 [--reps N]``
    Regenerate the execution-time chart (Figure 2).
``bench-record [--smoke] [--json PATH]``
    Run every benchmark suite (verifier hot path, runtime overhead,
    telemetry, sidecar soak, multi-process soak, distributed telemetry,
    prediction) at one scale, append the run to the trajectory file
    (default ``BENCH_trajectory.json``), print every record and every
    bound row, and exit 1 if any row FAILs.
``run <trace-file> [--runtime threaded|pool] [--policy P] [--timeout S]
[--watchdog-interval S] [--no-watchdog] [--fail-mode raise|open|closed]
[--journal PATH]``
    Execute the trace on a *blocking* runtime under full supervision:
    join deadlines, stall watchdog, cancellation.  Joins refused or
    terminated by the supervision layer are reported, never hung.
    ``--journal`` writes a crash-consistent trace journal of the run.
``serve [--host H] [--port P] [--journal PATH] [--inbox-limit N]
[--liveness-timeout S] [--obs]``
    Run the verification sidecar: a long-lived server that audits the
    fork/join streams of many client processes.  Prints
    ``LISTENING <host> <port>`` once ready and blocks until SIGTERM;
    ``--journal`` writes a post-mortem journal to a path that must be
    missing or empty (exit 2 otherwise, the file untouched).  ``--obs``
    turns telemetry on in the sidecar so ``stats`` requests return
    metrics and trace state (and ``repro top --live`` can attach).
``journal-replay <journal-file>``
    Reconstruct verifier state from a trace or sidecar journal
    (tolerating a crash-torn tail) and print the post-mortem: blocked
    edges at death, quarantine/retry events, and re-derived verdicts.  Exits 1 if any
    journalled verdict disagrees with a fresh policy instance; exits 2
    if the journal file is missing or empty.
``chaos [--programs N] [--seed S] [--policies ...] [--runtimes ...]
[--crash-rate R] [--delay-rate R] [--fault-rate R] [--max-tasks N]
[--smoke] [--recovery]``
    Run the deterministic fault-injection suite: seeded random fork/join
    programs across policies and runtimes, checking the supervised-
    runtime invariants.  ``--recovery`` adds the self-healing slice:
    policy-crash quarantine (fail-open and fail-closed) plus flaky-task
    retry programs.  Exits 1 on any violation.
``top (--live URL [--once] | --metrics FILE | --predict JOURNAL |
<trace-file> [--runtime R] [--policy P] [--interval S])``
    The live telemetry view: with ``--live``, attach to a running
    :class:`~repro.runtime.procs.ProcessRuntime` introspection endpoint
    or ``repro serve`` sidecar and render the merged blocked-join
    table, per-worker counters, and latency histograms on a cadence
    (``--once`` renders a single screen); with a trace file, execute it
    under full telemetry and render live state until the run completes;
    with ``--metrics``, render a saved metrics-snapshot JSON
    post-mortem (a missing or empty snapshot file exits 2 with a
    one-line diagnosis); with ``--predict``, run the deadlock predictor
    on a journal and render the predicted-cycle table.
``predict`` additionally accepts ``--trace-out PATH``: the journal
timeline with each predicted cycle overlaid as counterfactual
``predicted_deadlock`` instants on the member tasks' tracks.
``procs`` accepts ``--trace-out`` (merged cross-process Perfetto
trace), ``--metrics-out`` (merged fleet metrics snapshot), and
``--introspect PORT`` (live stats endpoint for ``top --live``).

``run`` and ``chaos`` additionally accept ``--trace-out PATH`` (write a
Perfetto/Chrome-trace JSON of the execution) and ``--metrics-out PATH``
(write the final metrics snapshot as JSON).

A command pointed at an input file that is missing, empty, malformed or
of the wrong kind, or at a trace that is not structurally valid (``check``
names the problem), prints one line on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Optional, Sequence, TypeVar

from ..core.policy import POLICY_REGISTRY
from ..formal.actions import parse_trace

__all__ = ["main"]

_T = TypeVar("_T")

#: small-scale parameters of the paper's six programs.  Its keys are
#: :data:`repro.benchsuite.ALL_BENCHMARKS` in order and serve as the
#: parser's benchmark choices, so building the parser (``repro serve``
#: included) imports no program; a subcommand imports what it runs.
_SMALL = {
    "Jacobi": {"n": 96, "blocks": 4, "iterations": 4},
    "Smith-Waterman": {"length": 240, "chunks": 6},
    "Crypt": {"size_bytes": 256 * 1024, "tasks": 128},
    "Strassen": {"n": 128, "cutoff": 64},
    "Series": {"coefficients": 400, "samples": 100},
    "NQueens": {"n": 8, "cutoff": 3},
}


def _read_trace(path: str) -> list:
    """The formal trace in the text file at *path* (a :func:`_load` reader)."""
    with open(path) as fh:
        return parse_trace(fh.read())


def _read_program(path: str):
    """The trace file at *path* as a runnable
    :class:`~repro.predict.TraceProgram` (a :func:`_load` reader)."""
    from ..predict.program import TraceProgram

    return TraceProgram.from_trace(_read_trace(path))


def _cmd_check(args: argparse.Namespace) -> int:
    from ..formal.deadlock import find_join_cycle
    from ..formal.trace import KJFamily, TJFamily, validate_trace

    trace = _load("check", "trace", args.trace, _read_trace)
    if trace is None:
        return 2
    family = {"TJ": TJFamily, "KJ": KJFamily}[args.policy]
    result = validate_trace(trace, family)
    cycle = find_join_cycle(trace)
    print(f"policy:        {result.policy}")
    print(f"actions:       {len(result.verdicts)}")
    print(f"tasks:         {len(result.tasks)}")
    print(f"valid:         {result.valid}")
    for v in result.verdicts:
        if not v.ok:
            print(f"  violation at #{v.index}: {v.action}  ({v.reason})")
    print(f"deadlock:      {'cycle ' + ' -> '.join(map(str, cycle)) if cycle else 'none'}")
    return 0 if result.valid else 1


def _cmd_viz(args: argparse.Namespace) -> int:
    from .viz import fork_tree_dot, render_fork_tree, render_permission_matrix

    trace = _load("viz", "trace", args.trace, _read_trace)
    if trace is None:
        return 2
    if args.format == "tree":
        print(render_fork_tree(trace))
    elif args.format == "matrix":
        print(render_permission_matrix(trace))
    else:
        print(fork_tree_dot(trace))
    return 0


def _blocking_runtime(kind: str, policy: Optional[str], **options):
    """A fresh ``--runtime`` runtime: thread-per-task or the work-sharing pool."""
    if kind == "pool":
        from ..runtime.pool import WorkSharingRuntime

        return WorkSharingRuntime(policy, **options)
    from ..runtime.threaded import TaskRuntime

    return TaskRuntime(policy, **options)


def _print_joins(outcome) -> None:
    """What a trace run did to its joins (``replay`` and ``run``)."""
    print(f"completed joins:  {len(outcome.completed_joins)}")
    print(f"refused joins:    {len(outcome.refusals)}")
    for waiter, joinee, kind in outcome.refusals:
        print(f"  join({waiter}, {joinee}) refused: {kind}")
    if outcome.deadlock is not None:
        print("  blocked cycle: " + " -> ".join(outcome.deadlock + (outcome.deadlock[0],)))
    elif outcome.error is not None:
        print(f"run failed: {outcome.error!r}")
    detector = outcome.runtime.detector
    if detector is not None:
        print(f"false positives:  {detector.stats.false_positives}")
        print(f"deadlocks avoided: {detector.stats.deadlocks_avoided}")


def _cmd_replay(args: argparse.Namespace) -> int:
    program = _load("replay", "trace", args.trace, _read_program)
    if program is None:
        return 2
    policy = None if args.policy == "none" else args.policy
    outcome = program.run_sim(
        policy, fallback=not args.no_fallback, max_steps=program.replay_max_steps
    )
    print(f"policy:           {args.policy}")
    _print_joins(outcome)
    return 0 if outcome.clean else 1


def _telemetry_scope(args: argparse.Namespace):
    """An active telemetry session when the command requested exports."""
    if getattr(args, "trace_out", None) or getattr(args, "metrics_out", None):
        from .. import obs

        return obs.enabled()
    return contextlib.nullcontext(None)


def _export_telemetry(session, args: argparse.Namespace) -> None:
    """Write the requested trace/metrics artifacts from *session*."""
    if session is None:
        return
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as fh:
            fh.write(session.to_json())
        print(f"metrics snapshot written to {args.metrics_out}")
    if getattr(args, "trace_out", None):
        from .trace_export import write_chrome_trace

        write_chrome_trace(session, args.trace_out)
        print(f"trace written to {args.trace_out}")


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load("run", "trace", args.trace, _read_program)
    if program is None:
        return 2
    policy = None if args.policy == "none" else args.policy
    watchdog = False if args.no_watchdog else args.watchdog_interval
    with _telemetry_scope(args) as session:
        rt = _blocking_runtime(
            args.runtime,
            policy,
            fallback=not args.no_fallback,
            default_join_timeout=args.timeout,
            watchdog=watchdog,
            fail_mode=args.fail_mode,
            journal=args.journal,
        )
        outcome = program.run_blocking(rt)
        print(f"runtime:          {args.runtime}")
        print(f"policy:           {args.policy}")
        _print_joins(outcome)
        if rt.watchdog is not None:
            print(f"watchdog stalls:  {rt.watchdog.deadlocks_detected}")
        if rt.verifier.quarantined:
            print(f"QUARANTINED:      {rt.verifier.quarantine_error}")
        if args.journal:
            print(f"journal:          {args.journal}")
        _export_telemetry(session, args)
    return 0 if outcome.clean else 1


def _load(command: str, what: str, path: str, reader: Callable[[str], _T]) -> Optional[_T]:
    """``reader(path)``, or None after a one-line diagnosis on stderr.

    Every command that reads a file (a trace, journal, witness or
    metrics snapshot) reads it through here: pointing one at a file that
    is missing, a directory, empty, malformed or of the wrong kind is an
    operator mistake, not a program crash, so the command reports it in
    one line and exits 2 instead of dumping a traceback.  A reader
    signals a bad file with ``JournalError`` (naming the file) or
    ``ValueError``.
    """
    import os

    from ..errors import JournalError

    if not os.path.exists(path):
        problem = f"{what} file not found: {path}"
    elif os.path.isdir(path):
        problem = f"{what} path is a directory, not a file: {path}"
    elif os.path.getsize(path) == 0:
        problem = f"{what} file is empty: {path}"
    else:
        try:
            return reader(path)
        except JournalError as exc:  # its message names the file
            problem = str(exc)
        except ValueError as exc:
            problem = f"{path}: {exc}"
    print(f"{command}: {problem}", file=sys.stderr)
    return None


def _cmd_journal_replay(args: argparse.Namespace) -> int:
    from .replay import replay_journal

    replay = _load("journal-replay", "journal", args.journal, replay_journal)
    if replay is None:
        return 2
    print(replay.report())
    return 1 if replay.recheck_mismatches else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from ..service.server import main as server_main

    argv = ["--host", args.host, "--port", str(args.port)]
    if args.journal:
        argv += ["--journal", args.journal]
    argv += ["--inbox-limit", str(args.inbox_limit)]
    argv += ["--liveness-timeout", str(args.liveness_timeout)]
    if args.obs:
        argv += ["--obs"]
    return server_main(argv)


def _cmd_procs(args: argparse.Namespace) -> int:
    import json as _json

    from ..testing.chaos import ChaosInvariantError, run_procs_divergence

    with _telemetry_scope(args) as session:
        try:
            result = run_procs_divergence(
                args.seed,
                workers=args.workers,
                tasks=args.tasks,
                fanout=args.fanout,
                sidecar=args.sidecar,
                kill_worker=args.kill_worker,
                check=args.check_divergence,
                introspect=args.introspect,
            )
        except ChaosInvariantError as exc:
            print(f"procs: FAIL {exc}", file=sys.stderr)
            return 1
        js = result.join_stats
        print(
            f"procs: workers={result.workers} dispatches={result.dispatches} "
            f"fanout={result.fanout}"
        )
        print(
            f"  killed_worker={result.killed_worker} deaths={result.worker_deaths} "
            f"redispatched={result.tasks_redispatched} orphans={result.orphan_results}"
        )
        print(
            f"  joins: local={js['local_joins']} cross={js['cross_joins']} "
            f"degraded={js['degraded_joins']} "
            f"escalation={js['escalation_ratio']:.3f} "
            f"audit_mismatches={js['audit_mismatches']}"
        )
        print(f"  divergences={len(result.divergences)}")
        if session is not None and args.metrics_out:
            # the merged fleet registry (parent + workers + retired cells),
            # not the parent-only session snapshot _export_telemetry writes
            snap = result.fleet_metrics or session.snapshot()
            with open(args.metrics_out, "w") as fh:
                _json.dump(snap, fh, indent=2)
            print(f"fleet metrics snapshot written to {args.metrics_out}")
        if session is not None and args.trace_out:
            from .trace_export import write_chrome_trace

            write_chrome_trace(session, args.trace_out)
            print(f"trace written to {args.trace_out}")
    return 1 if result.divergences else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    with _telemetry_scope(args) as session:
        status = _chaos_body(args)
        _export_telemetry(session, args)
    return status


def _chaos_body(args: argparse.Namespace) -> int:
    from collections import Counter
    from functools import partial

    from ..testing import chaos
    from ..testing.faults import FaultPlan

    program_id = args.program_id

    def indices(n: int) -> list:
        # --program-id K narrows every slice that runs at all to program
        # K; a slice of size 0 (the sweep under --programs 0) runs none.
        if n <= 0:
            return []
        return [program_id] if program_id is not None else list(range(n))

    if args.smoke:
        programs = args.programs if args.programs is not None else 2
        policies = args.policies or ["TJ-SP", "KJ-CC", "none"]
        runtimes = args.runtimes or list(chaos.RUNTIMES)
        crash_rate = args.crash_rate if args.crash_rate is not None else 0.15
        delay_rate = args.delay_rate if args.delay_rate is not None else 0.3
        max_tasks = args.max_tasks or 8
    else:
        programs = args.programs if args.programs is not None else 12
        policies = args.policies or sorted(POLICY_REGISTRY)
        runtimes = args.runtimes or list(chaos.RUNTIMES)
        crash_rate = args.crash_rate if args.crash_rate is not None else 0.15
        delay_rate = args.delay_rate if args.delay_rate is not None else 0.25
        max_tasks = args.max_tasks or 12
    fault_rate = args.fault_rate if args.fault_rate is not None else 0.2
    half = max(1, programs // 2)
    # inline joins of each pool program run: the work-first path must be
    # reached under crashes, delays and verifier faults
    pool_inline: list = []

    def note_inline(result) -> None:
        if getattr(result, "runtime", None) == "pool" and hasattr(result, "inline_joins"):
            pool_inline.append(result.inline_joins)

    def sweep(seed: int, policy: str, runtime: str) -> str:
        result = chaos.run_chaos_program(
            seed,
            policy=None if policy == "none" else policy,
            runtime=runtime,
            max_tasks=max_tasks,
            crash_rate=crash_rate,
            plan=FaultPlan(seed=seed, delay_rate=delay_rate),
            check=False,
        )
        note_inline(result)
        return "".join(f"\n  {violation}" for violation in result.violations)

    def failure(runner, *runner_args, **runner_kwargs) -> str:
        try:
            note_inline(runner(*runner_args, **runner_kwargs))
        except AssertionError as exc:
            return f" {exc}"
        return ""

    # One row per program: its summary bucket, its FAIL label, a run that
    # returns the text after "FAIL <label>:" ("" on a pass), and its repro
    # line.  A repro line reruns only its own slice: --programs 0 drops the
    # sweep, --fault-rate 0 the verifier faults and --policies none the
    # quarantine runs.  (No option drops the retry program, so a
    # quarantine repro reruns that one too.)
    rows: list = []

    def add(bucket, label, run, kind, index, **flags) -> None:
        rows.append((bucket, label, run, kind, index, flags))

    for policy in policies:
        for runtime in runtimes:
            for i in indices(programs):
                seed = args.seed + i
                add("sweep", f"seed={seed} policy={policy} runtime={runtime}",
                    partial(sweep, seed, policy, runtime), "", i,
                    policies=policy, runtimes=runtime, max_tasks=max_tasks,
                    crash_rate=crash_rate, delay_rate=delay_rate, fault_rate=0)
    if fault_rate > 0:
        for runtime in runtimes:
            for i in indices(half):
                seed = args.seed + i
                plan = FaultPlan(seed=seed, verifier_fault_rate=fault_rate)
                add("fault", f"verifier-faults seed={seed} runtime={runtime}",
                    partial(failure, chaos.run_chaos_program, seed, policy="TJ-SP",
                            runtime=runtime, max_tasks=max_tasks, plan=plan), "", i,
                    policies="TJ-SP", runtimes=runtime, max_tasks=max_tasks,
                    fault_rate=fault_rate, programs=0)
    if args.recovery:
        for runtime in runtimes:
            for policy in (p for p in policies if p != "none"):
                for mode in ("open", "closed"):
                    add("recovery",
                        f"quarantine policy={policy} runtime={runtime} fail_mode={mode}",
                        partial(failure, chaos.run_with_policy_quarantine, args.seed,
                                policy=policy, runtime=runtime, fail_mode=mode),
                        "--recovery", None,
                        policies=policy, runtimes=runtime, fault_rate=0, programs=0)
            for i in indices(half):
                seed = args.seed + i
                add("recovery", f"retries seed={seed} runtime={runtime}",
                    partial(failure, chaos.run_chaos_program, seed, policy="TJ-SP",
                            runtime=runtime, max_tasks=max_tasks, fail_attempts=2),
                    "--recovery", i,
                    policies="none", runtimes=runtime, max_tasks=max_tasks,
                    fault_rate=0, programs=0)

    repro_printed = False

    def print_repro(kind: str, index, **flags) -> None:
        # one single-line repro command per red run, at the first failure
        nonlocal repro_printed
        if not repro_printed:
            repro_printed = True
            print("repro: " + chaos.repro_command(kind, args.seed, index, **flags))

    runs: Counter = Counter()
    bad = 0
    for bucket, label, run, kind, index, flags in rows:
        detail = run()
        runs[bucket] += 1
        if detail:
            bad += 1
            print(f"FAIL {label}:{detail}")
            print_repro(kind, index, **flags)
    if args.predict:
        predict_programs = max(2, programs // 2) if args.smoke else max(4, programs // 2)
        result = chaos.run_predict_loop(
            predict_programs,
            seed=args.seed,
            journal_dir=args.journal_dir,
            check=False,
            program_id=program_id,
        )
        runs["predict"] = len(result.journals)
        flagged_paths = {path for path, _ in result.predictions}
        for path in result.journals:
            if path in flagged_paths:
                print(f"flagged journal={path}")
        print(
            f"predict: {runs['predict']} journals, "
            f"{result.flagged_programs} flagged "
            f"({result.clean_flagged} from clean runs), "
            f"{len(result.predictions)} witnesses verified"
        )
        if result.violations:
            bad += 1
            for violation in result.violations:
                print(f"FAIL predict: {violation}")
            print_repro(
                "--predict",
                program_id if program_id is not None else 0,
                programs=0,
                fault_rate=0,
                journal_dir=args.journal_dir,
            )
    if pool_inline:
        print(f"pool: {len(pool_inline)} programs, inline={sum(pool_inline)}")
        if not sum(pool_inline):
            bad += 1
            print("FAIL pool: no join ran its still-queued joinee inline")
    total = sum(runs.values())
    # The kernel TJ-SP resolved to here: under REPRO_TJ_BACKEND=auto a
    # kernel that fails to build falls back to py without a word.
    from ..core.tj_sp_flat import TJSpawnPathsFlat

    print(
        f"chaos: {total} programs ({runs['fault']} with verifier faults, "
        f"{runs['recovery']} recovery, "
        f"{runs['predict']} predict), "
        f"{total - bad} passed, {bad} failed, kernel={TJSpawnPathsFlat().backend}"
    )
    return 1 if bad else 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from ..predict import predict_deadlocks

    report = _load(
        "predict",
        "journal",
        args.journal,
        lambda path: predict_deadlocks(
            path,
            policies=tuple(args.policies or ("TJ-SP", "KJ-VC")),
            max_schedules=args.max_schedules,
        ),
    )
    if report is None:
        return 2
    print(report.report())
    if args.trace_out:
        from .trace_export import journal_to_trace, write_chrome_trace

        write_chrome_trace(
            journal_to_trace(args.journal, predictions=report), args.trace_out
        )
        print(f"prediction trace written: {args.trace_out}")
    if args.witness_out:
        if report.predictions:
            at = min(args.witness_index, len(report.predictions) - 1)
            report.predictions[at].save(args.witness_out)
            print(f"witness written: {args.witness_out}")
        else:
            print("no predictions; no witness written")
    if args.expect == "flagged" and not report.flagged:
        print("EXPECT FAILED: journal was not flagged")
        return 1
    if args.expect == "clean" and report.flagged:
        print("EXPECT FAILED: journal was flagged")
        return 1
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from ..predict import TraceProgram, read_witness

    if args.schedule:
        witness = _load("simulate", "witness", args.schedule, read_witness)
        if witness is None:
            return 2
        program, schedule = witness.program, witness.schedule
        print(
            f"witness: cycle {' -> '.join(witness.cycle)} "
            f"({len(schedule)} decisions, journal {witness.journal or '?'})"
        )
    elif args.journal:
        from ..tools.journal import read_trace_journal

        program = _load(
            "simulate",
            "journal",
            args.journal,
            lambda path: TraceProgram.from_records(read_trace_journal(path, "simulate").records),
        )
        if program is None:
            return 2
        schedule = None
    else:
        print("simulate needs --schedule WITNESS or --journal PATH")
        return 2
    policy = None if args.policy in (None, "none") else args.policy
    outcome = program.run_sim(
        policy,
        fallback=not args.no_fallback,
        seed=args.seed,
        schedule=schedule,
    )
    print(
        f"simulated: policy={args.policy or 'none'} verdict={outcome.verdict} "
        f"steps={outcome.steps} decisions={len(outcome.schedule or ())}"
    )
    if outcome.deadlock is not None:
        print("  blocked cycle: " + " -> ".join(outcome.deadlock + (outcome.deadlock[0],)))
    for waiter, joinee, error in outcome.refusals:
        print(f"  refused: {waiter} join {joinee} ({error})")
    if args.record_out and outcome.schedule is not None:
        outcome.schedule.save(args.record_out)
        print(f"recorded schedule written: {args.record_out}")
    if args.expect and outcome.verdict != args.expect:
        print(f"EXPECT FAILED: wanted {args.expect}, got {outcome.verdict}")
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from ..benchsuite import make_benchmark

    params = dict(_SMALL.get(args.name, {})) if args.scale == "small" else {}
    for kv in args.param or []:
        k, _, v = kv.partition("=")
        params[k] = int(v) if v.lstrip("-").isdigit() else v
    bench = make_benchmark(args.name, **params)
    policy = None if args.policy == "none" else args.policy
    result, rt = bench.execute(policy)
    ok = bench.verify(result)
    print(f"benchmark:       {bench!r}")
    print(f"policy:          {args.policy}")
    print(f"verified:        {ok}")
    print(f"forks:           {rt.verifier.stats.forks}")
    print(f"joins checked:   {rt.verifier.stats.joins_checked}")
    print(f"joins rejected:  {rt.verifier.stats.joins_rejected}")
    if rt.detector is not None:
        print(f"false positives: {rt.detector.stats.false_positives}")
        print(f"deadlocks avoided: {rt.detector.stats.deadlocks_avoided}")
    print(f"verifier space:  {rt.policy.space_units()} units")
    return 0 if ok else 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from ..analysis import measure_policy_costs, render_table1
    from ..formal.generators import balanced_fork_trace, chain_fork_trace, star_fork_trace

    sizes = args.sizes or [256, 1024, 4096]
    shapes = {
        "chain": chain_fork_trace,
        "star": star_fork_trace,
        "balanced": balanced_fork_trace,
    }
    points = []
    for policy in ("KJ-VC", "KJ-SS", "TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM"):
        for shape, gen in shapes.items():
            for n in sizes:
                points.append(
                    measure_policy_costs(policy, shape, gen(n), queries=args.queries)
                )
    print(render_table1(points))
    return 0


def _suite_reports(args: argparse.Namespace):
    from ..benchsuite import ALL_BENCHMARKS, Harness

    harness = Harness(repetitions=args.reps, warmup=1)
    overrides = (
        {name.replace("-", "_"): params for name, params in _SMALL.items()}
        if args.scale == "small"
        else {}
    )
    names = args.benchmarks or ALL_BENCHMARKS
    return harness.measure_suite(names, **overrides)


def _cmd_table2(args: argparse.Namespace) -> int:
    from ..analysis import render_table2

    reports = _suite_reports(args)
    print(render_table2(reports))
    if args.json:
        from ..analysis.record import append_run, fingerprint
        from ..analysis.stats import mean
        from ..analysis.suites import report_records

        records = [m for r in reports for m in report_records("table2", r, mean)]
        append_run(
            args.json,
            {"fingerprint": fingerprint(), "scale": args.scale, "measurements": records, "bounds": []},
        )
        print(f"records appended to {args.json}")
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    from ..analysis import render_figure2

    reports = _suite_reports(args)
    print(render_figure2(reports))
    if args.svg:
        from ..analysis.figure2_svg import render_figure2_svg

        with open(args.svg, "w") as fh:
            fh.write(render_figure2_svg(reports))
        print(f"SVG chart written to {args.svg}")
    return 0


def _top_live(args: argparse.Namespace) -> int:
    """Attach to a running ProcessRuntime / sidecar and render its stats."""
    import time as _time

    from ..errors import ServiceProtocolError, ServiceUnavailableError
    from ..obs.live import fetch_stats
    from ..obs.top import render_live_stats

    try:
        while True:
            try:
                stats = fetch_stats(args.live)
            except (ServiceUnavailableError, ServiceProtocolError, OSError) as exc:
                print(f"top: cannot fetch stats from {args.live}: {exc}", file=sys.stderr)
                return 2
            print(render_live_stats(stats))
            if args.once:
                return 0
            print()
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _read_snapshot(path: str) -> dict:
    """A saved metrics snapshot (a :func:`_load` reader)."""
    import json as _json

    with open(path) as fh:
        snapshot = _json.load(fh)
    if not isinstance(snapshot, dict):  # None would read as _load's refusal
        raise ValueError("not a metrics snapshot: its top level is not a JSON object")
    return snapshot


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from ..obs.top import render_snapshot, render_top

    if args.live:
        return _top_live(args)
    if args.predict:
        from ..obs.top import render_predictions
        from ..predict import predict_deadlocks

        report = _load(
            "top",
            "journal",
            args.predict,
            lambda path: predict_deadlocks(path, policies=("TJ-SP", "KJ-VC")),
        )
        if report is None:
            return 2
        print(render_predictions(report))
        if not args.metrics and not args.trace:
            return 0
        print()
    if args.metrics:
        snapshot = _load("top", "metrics", args.metrics, _read_snapshot)
        if snapshot is None:
            return 2
        print(render_snapshot(snapshot))
        return 0
    if not args.trace:
        print("top: a trace file (live mode) or --metrics FILE is required")
        return 2
    from .. import obs

    program = _load("top", "trace", args.trace, _read_program)
    if program is None:
        return 2
    policy = None if args.policy == "none" else args.policy
    box: dict = {}
    with obs.enabled() as session:

        def runner() -> None:
            try:
                box["outcome"] = program.run_blocking(
                    _blocking_runtime(args.runtime, policy)
                )
            except BaseException as exc:  # rendered, then reported via exit code
                box["error"] = exc

        worker = threading.Thread(target=runner, name="top-replay", daemon=True)
        worker.start()
        while worker.is_alive():
            worker.join(args.interval)
            print(render_top(session))
            print()
        print(render_top(session))
    if "error" in box:
        print(f"run failed: {box['error']!r}")
        return 1
    return 0 if box["outcome"].clean else 1


def _cmd_bench_record(args: argparse.Namespace) -> int:
    import json as _json

    from ..analysis.bounds import FAIL, judge
    from ..analysis.record import append_run, fingerprint, render_records, render_rows
    from ..analysis.suites import SUITES

    scale = "smoke" if args.smoke else "full"
    finger = fingerprint()
    print(f"{scale} run: {_json.dumps(finger, sort_keys=True)}")
    records = []
    for name, suite in SUITES.items():
        got = suite(scale)
        print(f"\n[{name}]\n{render_records(got)}", flush=True)
        records += got
    rows = judge(records, scale, finger)
    print(f"\n[bounds]\n{render_rows(rows)}")
    append_run(args.json, {"fingerprint": finger, "scale": scale, "measurements": records, "bounds": rows})
    print(f"\nrun appended to {args.json}")
    return 1 if any(r["status"] == FAIL for r in rows) else 0


def _cmd_report(args: argparse.Namespace) -> int:
    from ..analysis.report import ReportConfig, build_report

    text = build_report(ReportConfig(repetitions=args.reps))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a trace file")
    p.add_argument("trace")
    p.add_argument("--policy", choices=["TJ", "KJ"], default="TJ")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("viz", help="render a trace")
    p.add_argument("trace")
    p.add_argument("--format", choices=["tree", "matrix", "dot"], default="tree")
    p.set_defaults(fn=_cmd_viz)

    p = sub.add_parser("replay", help="execute a trace on the runtime")
    p.add_argument("trace")
    p.add_argument(
        "--policy",
        default="TJ-SP",
        choices=sorted(POLICY_REGISTRY),
    )
    p.add_argument("--no-fallback", action="store_true")
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("run", help="execute a trace on a supervised blocking runtime")
    p.add_argument("trace")
    p.add_argument(
        "--policy",
        default="TJ-SP",
        choices=sorted(POLICY_REGISTRY),
    )
    p.add_argument("--runtime", choices=["threaded", "pool"], default="threaded")
    p.add_argument("--no-fallback", action="store_true")
    p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="runtime-wide default join timeout",
    )
    p.add_argument(
        "--watchdog-interval",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="stall-watchdog scan interval",
    )
    p.add_argument("--no-watchdog", action="store_true", help="disable the stall watchdog")
    p.add_argument(
        "--fail-mode",
        choices=["raise", "open", "closed"],
        default="raise",
        help="policy fault boundary: propagate, degrade to Armus, or refuse",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="write a crash-consistent trace journal of the run",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Perfetto/Chrome-trace JSON of the run",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the final metrics snapshot as JSON",
    )
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "serve", help="run the verification sidecar (blocks until SIGTERM)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument(
        "--journal", metavar="PATH", help="post-mortem journal (missing or empty)"
    )
    p.add_argument("--inbox-limit", type=int, default=1024)
    p.add_argument("--liveness-timeout", type=float, default=5.0)
    p.add_argument(
        "--obs",
        action="store_true",
        help="enable telemetry in the sidecar (stats replies carry "
        "metrics and trace state)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "journal-replay", help="post-mortem replay of a trace or sidecar journal"
    )
    p.add_argument("journal")
    p.set_defaults(fn=_cmd_journal_replay)

    p = sub.add_parser(
        "procs", help="multi-process runtime run with divergence checking"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--tasks", type=int, default=2000, help="total leaf-task count"
    )
    p.add_argument(
        "--fanout", type=int, default=20, help="leaves per dispatched subtree"
    )
    p.add_argument(
        "--sidecar",
        default=None,
        help="remote://host:port URL or 'auto' (omit: no sidecar)",
    )
    p.add_argument(
        "--kill-worker",
        action="store_true",
        help="SIGKILL a seed-chosen worker mid-run",
    )
    p.add_argument(
        "--check-divergence",
        action="store_true",
        help="fail (exit 1) on any divergence from the all-local run",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a merged cross-process Perfetto/Chrome-trace JSON",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged fleet metrics snapshot as JSON",
    )
    p.add_argument(
        "--introspect",
        type=int,
        default=None,
        metavar="PORT",
        help="serve live introspection stats on PORT (0 picks a free port) "
        "for `repro top --live`",
    )
    p.set_defaults(fn=_cmd_procs)

    p = sub.add_parser("chaos", help="deterministic fault-injection suite")
    p.add_argument(
        "--programs",
        type=int,
        default=None,
        help="seeds per policy x runtime combination",
    )
    p.add_argument("--seed", type=int, default=0, help="base seed")
    p.add_argument("--policies", nargs="*", choices=sorted(POLICY_REGISTRY))
    p.add_argument("--runtimes", nargs="*", choices=["threaded", "pool"])
    p.add_argument("--crash-rate", type=float, default=None)
    p.add_argument("--delay-rate", type=float, default=None)
    p.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        help="verifier-fault injection rate (0 disables the fault sweep)",
    )
    p.add_argument("--max-tasks", type=int, default=None)
    p.add_argument(
        "--smoke",
        action="store_true",
        help="small fixed configuration for CI",
    )
    p.add_argument(
        "--program-id",
        type=int,
        default=None,
        help="run only program index K of each slice (seed becomes seed+K)",
    )
    p.add_argument(
        "--recovery",
        action="store_true",
        help="add the quarantine + retry self-healing slice",
    )
    p.add_argument(
        "--predict",
        action="store_true",
        help="add the predict -> simulate -> avoid loop slice",
    )
    p.add_argument(
        "--journal-dir",
        metavar="DIR",
        help="where the predict slice writes its journals (default: tmp)",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Perfetto/Chrome-trace JSON of the whole sweep",
    )
    p.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the final metrics snapshot as JSON",
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "predict", help="predict deadlocks other schedules of a journal can reach"
    )
    p.add_argument("journal")
    p.add_argument(
        "--policies",
        nargs="*",
        choices=sorted(POLICY_REGISTRY),
        help="policies whose verdicts are recorded along each witness",
    )
    p.add_argument("--max-schedules", type=int, default=256)
    p.add_argument(
        "--witness-out",
        metavar="PATH",
        help="write the selected prediction as a witness file",
    )
    p.add_argument(
        "--witness-index",
        type=int,
        default=0,
        help="which prediction --witness-out writes (default: first)",
    )
    p.add_argument(
        "--expect",
        choices=["flagged", "clean"],
        help="exit 1 unless the report matches",
    )
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write the journal timeline with predicted-deadlock instants "
        "overlaid as Perfetto/Chrome-trace JSON",
    )
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser(
        "simulate", help="deterministic simulation of a witness or journal program"
    )
    p.add_argument(
        "--schedule",
        metavar="WITNESS",
        help="witness file from `repro predict --witness-out`",
    )
    p.add_argument(
        "--journal",
        metavar="PATH",
        help="reconstruct the program from this journal instead",
    )
    p.add_argument("--seed", type=int, default=None, help="scheduling RNG seed")
    p.add_argument(
        "--policy",
        default=None,
        help="policy name or 'none' (default: none, the unchecked baseline)",
    )
    p.add_argument(
        "--no-fallback",
        action="store_true",
        help="disable the Armus fallback (denials fault immediately)",
    )
    p.add_argument(
        "--record-out",
        metavar="PATH",
        help="write the recorded schedule of this run",
    )
    p.add_argument(
        "--expect",
        choices=["deadlock", "avoided", "denied", "clean", "error"],
        help="exit 1 unless the run's verdict matches",
    )
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("top", help="live telemetry view (or render a snapshot)")
    p.add_argument("trace", nargs="?", help="trace file to execute in live mode")
    p.add_argument(
        "--metrics",
        metavar="FILE",
        help="render a saved metrics-snapshot JSON instead of running",
    )
    p.add_argument(
        "--live",
        metavar="URL",
        help="attach to a running ProcessRuntime introspection endpoint or "
        "`repro serve` sidecar (remote://HOST:PORT) and render its stats",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="with --live: render one screen and exit instead of refreshing",
    )
    p.add_argument(
        "--predict",
        metavar="JOURNAL",
        help="run the deadlock predictor on JOURNAL and render the "
        "predicted-cycle table",
    )
    p.add_argument(
        "--policy",
        default="TJ-SP",
        choices=sorted(POLICY_REGISTRY) + ["none"],
    )
    p.add_argument("--runtime", choices=["threaded", "pool"], default="threaded")
    p.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="refresh cadence in live mode",
    )
    p.set_defaults(fn=_cmd_top)

    p = sub.add_parser("bench", help="run one benchmark")
    p.add_argument("name", choices=tuple(_SMALL))
    p.add_argument(
        "--policy",
        default="TJ-SP",
        choices=sorted(POLICY_REGISTRY),
    )
    p.add_argument("--scale", choices=["small", "default"], default="default")
    p.add_argument("--param", action="append", metavar="k=v")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("table1", help="empirical complexity table")
    p.add_argument("--sizes", type=int, nargs="*")
    p.add_argument("--queries", type=int, default=2000)
    p.set_defaults(fn=_cmd_table1)

    for name, fn in (("table2", _cmd_table2), ("figure2", _cmd_figure2)):
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--reps", type=int, default=5)
        p.add_argument("--scale", choices=["small", "default"], default="small")
        p.add_argument(
            "--benchmarks", nargs="*", choices=tuple(_SMALL), metavar="NAME"
        )
        if name == "table2":
            p.add_argument("--json", help="also append the records to this trajectory file")
        else:
            p.add_argument("--svg", help="also render an SVG chart to this file")
        p.set_defaults(fn=fn)

    p = sub.add_parser("bench-record", help="run every benchmark suite and judge every bound")
    p.add_argument("--smoke", action="store_true", help="CI-sized shapes")
    p.add_argument("--json", default="BENCH_trajectory.json", help="trajectory file to append to")
    p.set_defaults(fn=_cmd_bench_record)

    p = sub.add_parser("report", help="full reproduction report (markdown)")
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(fn=_cmd_report)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
