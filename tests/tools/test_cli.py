"""Tests for the command-line interface."""

import pytest

from repro.core.tj_sp_flat import TJSpawnPathsFlat
from repro.tools.cli import main


@pytest.fixture
def trace_file(tmp_path):
    def write(text):
        p = tmp_path / "trace.txt"
        p.write_text(text)
        return str(p)

    return write


GOOD_TRACE = """
init(a)
fork(a, b)
fork(b, c)
join(a, c)   # grandchild join
join(a, b)
"""


class TestCheckCommand:
    def test_tj_accepts_grandchild_join(self, trace_file, capsys):
        rc = main(["check", trace_file(GOOD_TRACE), "--policy", "TJ"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "valid:         True" in out
        assert "deadlock:      none" in out

    def test_kj_rejects_grandchild_join(self, trace_file, capsys):
        rc = main(["check", trace_file(GOOD_TRACE), "--policy", "KJ"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "violation at #3" in out

    def test_deadlock_reported(self, trace_file, capsys):
        rc = main(
            [
                "check",
                trace_file("init(a)\nfork(a, b)\nfork(a, c)\njoin(b, c)\njoin(c, b)\n"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "cycle" in out


class TestBenchCommand:
    def test_bench_runs_and_verifies(self, capsys):
        rc = main(
            ["bench", "NQueens", "--policy", "KJ-SS", "--param", "n=7", "--param", "cutoff=2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verified:        True" in out
        assert "false positives:" in out

    def test_bench_small_scale(self, capsys):
        rc = main(["bench", "Strassen", "--policy", "none", "--scale", "small"])
        assert rc == 0
        assert "verified:        True" in capsys.readouterr().out

    def test_parser_choices_are_the_benchmark_suite(self):
        """The parser takes its benchmark names from the small-scale table,
        so building it imports no program; that table must name the suite."""
        from repro.benchsuite import ALL_BENCHMARKS
        from repro.tools.cli import _SMALL

        assert tuple(_SMALL) == ALL_BENCHMARKS


class TestVizCommand:
    def test_tree(self, trace_file, capsys):
        rc = main(["viz", trace_file(GOOD_TRACE), "--format", "tree"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "rank" in out and "`--" in out or "|--" in out

    def test_matrix(self, trace_file, capsys):
        rc = main(["viz", trace_file(GOOD_TRACE), "--format", "matrix"])
        out = capsys.readouterr().out
        assert rc == 0 and "TJ only" in out

    def test_dot(self, trace_file, capsys):
        rc = main(["viz", trace_file(GOOD_TRACE), "--format", "dot"])
        out = capsys.readouterr().out
        assert rc == 0 and out.startswith("digraph")


class TestReplayCommand:
    def test_clean_replay(self, trace_file, capsys):
        rc = main(["replay", trace_file(GOOD_TRACE), "--policy", "TJ-SP"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed joins:  2" in out
        assert "false positives:  0" in out

    def test_kj_replay_uses_fallback(self, trace_file, capsys):
        rc = main(["replay", trace_file(GOOD_TRACE), "--policy", "KJ-SS"])
        out = capsys.readouterr().out
        assert rc == 0  # fallback admits the grandchild join
        assert "false positives:  1" in out

    def test_no_fallback_refuses(self, trace_file, capsys):
        rc = main(
            ["replay", trace_file(GOOD_TRACE), "--policy", "KJ-SS", "--no-fallback"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "PolicyViolationError" in out


class TestReportCommands:
    def test_table1(self, capsys):
        rc = main(["table1", "--sizes", "64", "128", "--queries", "30"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "paper bounds" in out
        assert "TJ-SP" in out

    def test_table2_subset(self, capsys):
        rc = main(
            ["table2", "--reps", "1", "--benchmarks", "Strassen", "NQueens"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Strassen" in out and "NQueens" in out and "Jacobi" not in out
        assert "Geom. mean" in out

    def test_figure2_subset(self, capsys):
        rc = main(["figure2", "--reps", "2", "--benchmarks", "NQueens"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "95% CI" in out and "NQueens" in out

    def test_table2_json_export(self, tmp_path, capsys):
        from repro.analysis.record import load_trajectory

        path = str(tmp_path / "raw.json")
        rc = main(
            ["table2", "--reps", "1", "--benchmarks", "NQueens", "--json", path]
        )
        assert rc == 0
        (run,) = load_trajectory(path)
        assert run["scale"] == "small" and run["fingerprint"]["nproc"] >= 1
        by_name = {m.name: m for m in run["measurements"]}
        assert len(by_name["table2.NQueens.none.time"].samples) == 1
        assert {"table2.NQueens.TJ-SP.time", "table2.NQueens.TJ-SP.overhead"} <= set(by_name)

    def test_figure2_svg_export(self, tmp_path, capsys):
        path = str(tmp_path / "fig2.svg")
        rc = main(
            ["figure2", "--reps", "2", "--benchmarks", "Strassen", "--svg", path]
        )
        assert rc == 0
        content = open(path).read()
        assert content.startswith("<svg") and "Strassen" in content

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestBenchRecordCommand:
    """``bench-record`` on stub suites and a two-row table: the real suites
    run in the bench CI job, not here."""

    @pytest.fixture
    def stubbed(self, monkeypatch):
        from repro.analysis import bounds, suites
        from repro.analysis.bounds import Bound
        from repro.analysis.record import Measurement

        box = {"speedup": 2.5}
        monkeypatch.setattr(suites, "SUITES", {
            "stub": lambda scale: [Measurement("stub.speedup", "x", box["speedup"], [1.0, 2.0])],
        })
        monkeypatch.setattr(bounds, "BOUNDS", (
            Bound("stub.speedup", "stub.speedup", ">=", 2.0, 1.5),
            Bound("stub.full_only", "stub.speedup", ">=", 2.0, None),
        ))
        return box

    def test_pass_appends_the_run_and_prints_records_and_rows(self, stubbed, tmp_path, capsys):
        from repro.analysis.record import load_trajectory

        path = str(tmp_path / "trajectory.json")
        assert main(["bench-record", "--smoke", "--json", path]) == 0
        out = capsys.readouterr().out
        assert "stub.speedup" in out and "n=2" in out
        assert "PASS" in out and "NOT ENFORCEABLE" in out and "full scale only" in out
        (run,) = load_trajectory(path)
        assert run["scale"] == "smoke" and run["fingerprint"]["nproc"] >= 1
        assert [r["status"] for r in run["bounds"]] == ["PASS", "NOT ENFORCEABLE"]

    def test_a_failed_row_exits_1_and_still_appends(self, stubbed, tmp_path, capsys):
        from repro.analysis.record import load_trajectory

        stubbed["speedup"] = 1.0
        path = str(tmp_path / "trajectory.json")
        assert main(["bench-record", "--json", path]) == 1
        assert "FAIL" in capsys.readouterr().out
        assert [r["status"] for r in load_trajectory(path)[0]["bounds"]] == ["FAIL", "FAIL"]

    def test_a_malformed_trajectory_is_refused_untouched(self, stubbed, tmp_path):
        path = tmp_path / "trajectory.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            main(["bench-record", "--smoke", "--json", str(path)])
        assert path.read_text() == "{}"


class TestRunCommand:
    def test_clean_trace_on_threaded(self, trace_file, capsys):
        rc = main(["run", trace_file(GOOD_TRACE), "--policy", "TJ-SP"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "completed joins:  2" in out
        assert "refused joins:    0" in out

    def test_clean_trace_on_pool(self, trace_file, capsys):
        rc = main(
            ["run", trace_file(GOOD_TRACE), "--policy", "KJ-CC", "--runtime", "pool"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "runtime:          pool" in out
        # the grandchild join is KJ's known false positive
        assert "false positives:  1" in out

    def test_true_deadlock_under_no_policy_is_diagnosed(self, trace_file, capsys):
        """policy=none disarms avoidance; the watchdog must still end
        the run with a diagnosis instead of a hang."""
        rc = main(
            [
                "run",
                trace_file("init(a)\nfork(a, b)\nfork(a, c)\njoin(b, c)\njoin(c, b)\n"),
                "--policy",
                "none",
                "--watchdog-interval",
                "0.02",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        # both blocked tasks get the diagnosis, but whichever handles it
        # first completes (the replay body catches the error), letting
        # the other's join succeed — so 1 or 2 joins report refused.
        assert "DeadlockDetectedError" in out
        assert "watchdog stalls:  2" in out

    def test_join_timeout_flag(self, trace_file, capsys):
        rc = main(
            [
                "run",
                trace_file("init(a)\nfork(a, b)\nfork(a, c)\njoin(b, c)\njoin(c, b)\n"),
                "--policy",
                "none",
                "--no-watchdog",
                "--timeout",
                "0.05",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "JoinTimeoutError" in out


class TestChaosCommand:
    def test_smoke_sweep_passes(self, capsys):
        rc = main(["chaos", "--smoke", "--programs", "1", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "passed" in out and "0 failed" in out

    def test_narrow_sweep_with_faults(self, capsys):
        rc = main(
            [
                "chaos",
                "--programs",
                "1",
                "--policies",
                "TJ-SP",
                "--runtimes",
                "threaded",
                "--fault-rate",
                "0.2",
                "--max-tasks",
                "6",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "with verifier faults" in out

    @pytest.mark.parametrize(
        "target", ["sweep", "verifier-faults", "retries"]
    )
    def test_repro_line_reruns_only_the_failed_slice(
        self, target, monkeypatch, capsys
    ):
        from types import SimpleNamespace

        from repro.testing import chaos

        calls = []

        def outcome(slice_name, runtime, check):
            # every slice is stubbed: only the target fails, and only on pool
            calls.append((slice_name, runtime))
            failed = slice_name == target and runtime == "pool"
            if failed and check:
                raise chaos.ChaosInvariantError(f"{slice_name} stub failure")
            return ["stub violation"] if failed else []

        def program(seed, *, runtime, plan=None, fail_attempts=0, check=True, **_):
            if fail_attempts:
                name = "retries"
            elif plan is not None and plan.verifier_fault_rate > 0:
                name = "verifier-faults"
            else:
                name = "sweep"
            return SimpleNamespace(violations=outcome(name, runtime, check))

        def quarantine(seed, *, runtime, **_):
            outcome("quarantine", runtime, True)

        monkeypatch.setattr(chaos, "run_chaos_program", program)
        monkeypatch.setattr(chaos, "run_with_policy_quarantine", quarantine)

        rc = main(["chaos", "--smoke", "--recovery", "--seed", "0"])
        out = capsys.readouterr().out
        assert rc == 1
        [repro] = [line for line in out.splitlines() if line.startswith("repro: ")]
        assert {name for name, _ in calls} == {
            "sweep", "verifier-faults", "quarantine", "retries"
        }

        calls.clear()
        rc = main(repro.split()[2:])  # drop "repro:" and the program name
        out = capsys.readouterr().out
        assert rc == 1
        assert calls == [(target, "pool")]
        assert "chaos: 1 programs" in out and "0 passed, 1 failed" in out
        assert f"failed, kernel={TJSpawnPathsFlat().backend}" in out


class TestPredictAndSimulateCommands:
    @pytest.fixture
    def flagged_journal(self, tmp_path):
        from repro.testing.chaos import run_predict_program

        path = str(tmp_path / "predict.jsonl")
        run_predict_program(0, path)  # seed 0 plants a cycle
        return path

    def test_predict_flags_and_writes_a_witness(
        self, flagged_journal, tmp_path, capsys
    ):
        witness = str(tmp_path / "witness.json")
        rc = main(
            [
                "predict",
                flagged_journal,
                "--witness-out",
                witness,
                "--expect",
                "flagged",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "predicted deadlock" in out
        assert "witness written" in out

    def test_simulate_replays_the_witness_under_each_policy(
        self, flagged_journal, tmp_path, capsys
    ):
        witness = str(tmp_path / "witness.json")
        assert main(["predict", flagged_journal, "--witness-out", witness]) == 0
        capsys.readouterr()

        rc = main(
            ["simulate", "--schedule", witness, "--policy", "none",
             "--expect", "deadlock"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict=deadlock" in out

        for policy in ("TJ-SP", "KJ-VC"):
            rc = main(
                ["simulate", "--schedule", witness, "--policy", policy,
                 "--expect", "avoided"]
            )
            out = capsys.readouterr().out
            assert rc == 0
            assert "verdict=avoided" in out

    def test_simulate_seeded_from_a_journal(self, flagged_journal, capsys):
        rc = main(
            ["simulate", "--journal", flagged_journal, "--seed", "0",
             "--policy", "TJ-SP"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict=" in out

    def test_expect_mismatch_exits_nonzero(self, flagged_journal, capsys):
        rc = main(["predict", flagged_journal, "--expect", "clean"])
        capsys.readouterr()
        assert rc == 1

    def test_chaos_predict_slice_prints_flagged_journals(self, tmp_path, capsys):
        rc = main(
            ["chaos", "--predict", "--smoke", "--seed", "0",
             "--journal-dir", str(tmp_path), "--program-id", "0"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "flagged journal=" in out
        assert "predict" in out.rsplit("chaos:", 1)[-1]


def _sidecar_journal(path):
    """A one-session sidecar journal: integer rids, a ``session`` on
    every record — not a trace any simulator can run."""
    from repro.tools.journal import ServiceJournal

    with ServiceJournal(path) as journal:
        journal.log_session("s1", "TJ-SP", "raise")
        journal.log_event("s1", {"kind": "init", "cseq": 0, "task": 1})
        journal.log_event("s1", {"kind": "fork", "cseq": 1, "parent": 1, "child": 2})


class TestWrongFileExits2:
    """A post-mortem command pointed at the wrong file prints one line
    on stderr naming it and exits 2 — no traceback, nothing simulated."""

    @pytest.fixture
    def wrong(self, tmp_path):
        from repro.runtime.explore import Schedule

        files = {
            "missing": tmp_path / "no-such.jsonl",
            "directory": tmp_path,
            "empty": tmp_path / "empty.jsonl",
            "sidecar": tmp_path / "sidecar.jsonl",
            "recorded-schedule": tmp_path / "recorded.json",
            "list": tmp_path / "list.json",
            "torn": tmp_path / "torn.jsonl",
        }
        files["empty"].write_text("")
        # killed mid-way through its first record: no init to rebuild from
        files["torn"].write_text('{"kind": "init", "se')
        _sidecar_journal(str(files["sidecar"]))
        # what `simulate --record-out` writes: a schedule, not a witness
        Schedule(choices=(1, 0), widths=(2, 2)).save(str(files["recorded-schedule"]))
        files["list"].write_text("[]\n")
        return {name: str(path) for name, path in files.items()}

    @pytest.mark.parametrize(
        "command, kind",
        [
            ("predict", "missing"),
            ("predict", "directory"),
            ("predict", "sidecar"),
            ("simulate --schedule", "missing"),
            ("simulate --schedule", "recorded-schedule"),
            ("simulate --schedule", "list"),
            ("simulate --journal", "empty"),
            ("simulate --journal", "sidecar"),
            ("simulate --journal", "torn"),
            ("journal-replay", "missing"),
            ("top --predict", "sidecar"),
            ("top --metrics", "empty"),
        ],
    )
    def test_one_line_on_stderr_and_exit_2(self, command, kind, wrong, capsys):
        path = wrong[kind]
        rc = main(command.split() + [path])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err.startswith(command.split()[0] + ": ")
        assert err.count("\n") == 1 and path in err
