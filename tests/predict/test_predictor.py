"""End-to-end predictor tests: journal in, verified witnesses out."""

import json

import pytest

from repro.predict import predict_deadlocks, read_witness
from repro.testing.chaos import generate_predict_spec, run_predict_program
from repro.tools.replay import replay_journal


@pytest.fixture(scope="module")
def mutual_journal(tmp_path_factory):
    """A journal of a *clean* run whose program can deadlock: root forks
    t1 and t2 which mutually join, all joins deadline-rescued."""
    path = str(tmp_path_factory.mktemp("journals") / "mutual.jsonl")
    program, planted = generate_predict_spec(0)
    assert planted  # seed 0 plants a cycle
    run_predict_program(program, path)
    return path


@pytest.fixture(scope="module")
def mutual_report(mutual_journal):
    return predict_deadlocks(mutual_journal)


class TestFlagging:
    def test_clean_recorded_run_is_still_flagged(self, mutual_journal, mutual_report):
        """The acceptance bar: a journal whose recorded run completed
        cleanly (every join rescued in time) still yields a prediction."""
        replay = replay_journal(mutual_journal)
        assert not replay.died_blocked
        assert mutual_report.clean_run
        assert mutual_report.flagged
        assert all(p.clean_run for p in mutual_report.predictions)

    def test_prediction_carries_policy_verdicts(self, mutual_report):
        for prediction in mutual_report.predictions:
            assert set(prediction.verdicts) == {"TJ-SP", "KJ-VC"}
            for policy, verdict in prediction.verdicts.items():
                assert verdict != "deadlock", policy

    def test_cycle_free_program_is_not_flagged(self, tmp_path):
        program, planted = generate_predict_spec(4)  # seed 4 plants no cycle
        assert not planted
        path = str(tmp_path / "acyclic.jsonl")
        run_predict_program(program, path)
        report = predict_deadlocks(path)
        assert not report.flagged
        assert not report.candidates

    @pytest.mark.parametrize("budget", [0, -1])
    def test_no_schedule_budget_simulates_nothing(self, mutual_journal, budget):
        report = predict_deadlocks(mutual_journal, max_schedules=budget)
        assert report.candidates
        assert report.sim_runs == 0
        assert not report.flagged

    def test_retry_journal_is_skipped_not_mispredicted(self, tmp_path):
        path = str(tmp_path / "retry.jsonl")
        records = [
            {"kind": "init", "task": "t0", "seq": 0},
            {"kind": "fork", "parent": "t0", "child": "t1", "seq": 1},
            {"kind": "retry", "task": "t1", "attempt": 2, "seq": 2},
        ]
        with open(path, "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
        report = predict_deadlocks(path)
        assert report.skipped is not None
        assert not report.flagged


class TestWitness:
    def test_witness_reproduces_the_exact_cycle(self, mutual_report):
        for prediction in mutual_report.predictions:
            outcome = prediction.reproduce()
            assert outcome.verdict == "deadlock"
            assert outcome.deadlock is not None
            assert set(outcome.deadlock) == set(prediction.cycle)

    def test_witness_file_roundtrip(self, mutual_report, tmp_path):
        prediction = mutual_report.predictions[0]
        path = str(tmp_path / "witness.json")
        prediction.save(path)
        loaded = read_witness(path)
        assert loaded.cycle == prediction.cycle
        assert loaded.schedule == prediction.schedule
        assert loaded.verdicts == prediction.verdicts
        outcome = loaded.reproduce()
        assert outcome.verdict == "deadlock"
        assert set(outcome.deadlock) == set(prediction.cycle)


class TestDeterminism:
    def test_repeated_prediction_is_identical(self, mutual_journal, mutual_report):
        again = predict_deadlocks(mutual_journal)
        assert [p.to_dict() for p in again.predictions] == [
            p.to_dict() for p in mutual_report.predictions
        ]
        assert again.candidates == mutual_report.candidates
        assert again.sim_runs == mutual_report.sim_runs

    def test_report_renders(self, mutual_report):
        text = mutual_report.report()
        assert "predicted deadlock" in text
        assert "counterfactual" in text
