"""The predict -> simulate -> avoid chaos loop and its repro commands."""

import pytest

from repro.testing.chaos import (
    generate_predict_spec,
    repro_command,
    run_predict_loop,
)


class TestSpecGeneration:
    def test_same_seed_same_spec(self):
        assert generate_predict_spec(3) == generate_predict_spec(3)

    def test_corpus_mixes_cyclic_and_acyclic_programs(self):
        planted = [generate_predict_spec(seed)[1] for seed in range(8)]
        assert any(planted)
        assert not all(planted)

    def test_planted_cycles_are_real_join_rings(self):
        program, planted = generate_predict_spec(0)
        assert planted
        for cycle in planted:
            for i, task in enumerate(cycle):
                target = cycle[(i + 1) % len(cycle)]
                assert ("join", target) in program.actions[task]


class TestPredictLoop:
    def test_three_way_invariant_holds_on_the_corpus(self, tmp_path):
        result = run_predict_loop(
            3, seed=0, journal_dir=str(tmp_path), check=False
        )
        assert result.violations == []
        assert result.flagged_programs >= 1
        # the acceptance bar: flags from recorded runs that were clean
        assert result.clean_flagged >= 1
        assert len(result.journals) == 3

    def test_check_mode_raises_on_violations(self, tmp_path, monkeypatch):
        import repro.predict as predict_pkg
        from repro.predict.predictor import PredictionReport
        from repro.testing.chaos import ChaosInvariantError

        def always_skipped(path, **kwargs):
            return PredictionReport(path=path, skipped="forced for the test")

        monkeypatch.setattr(predict_pkg, "predict_deadlocks", always_skipped)
        with pytest.raises(ChaosInvariantError, match="skipped"):
            run_predict_loop(1, seed=0, journal_dir=str(tmp_path), check=True)

    def test_program_id_restricts_the_sweep(self, tmp_path):
        result = run_predict_loop(
            4, seed=0, journal_dir=str(tmp_path), check=False, program_id=2
        )
        assert len(result.journals) == 1
        assert result.journals[0].endswith("predict-2.jsonl")


class TestReproCommand:
    def test_renders_a_single_line(self):
        cmd = repro_command("--predict", 7, 2, programs=4)
        assert cmd == "repro chaos --predict --seed 7 --program-id 2 --programs 4"
        assert "\n" not in cmd

    def test_omits_absent_parts(self):
        assert repro_command("", 0) == "repro chaos --seed 0"
        assert (
            repro_command("--recovery", 1, None, runtimes="threaded")
            == "repro chaos --recovery --seed 1 --runtimes threaded"
        )
