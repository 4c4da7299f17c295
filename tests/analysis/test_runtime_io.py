"""The trajectory file: records round-trip, one schema, append-only."""

import pytest

from repro.analysis import suites
from repro.analysis.record import Measurement, append_run, load_trajectory


def _run(records, scale="smoke"):
    finger = {"nproc": 2, "python": "3.11.7", "numpy": "2.0", "tj_backend": "c",
              "commit": "abc", "source_digest": "0123", "platform": "linux"}
    return {"fingerprint": finger, "scale": scale, "measurements": records, "bounds": []}


PREDICT = [
    Measurement("predict.events_per_s", "1/s", 74 / 0.004, params={"programs": 3, "events": 74}),
    Measurement("predict.coop.time", "s", 0.0006, [0.0006, 0.0007]),
    Measurement("predict.sim.time", "s", 0.0007, [0.0007, 0.0009]),
    Measurement("predict.sim_overhead", "x", 0.0007 / 0.0006),
]

OBS_DIST = [
    Measurement("obs_dist.off.time", "s", 1.65, [1.7, 1.6, 1.65], {"workers": 2}),
    Measurement("obs_dist.on.time", "s", 1.62, [1.6, 1.62, 1.7], {"workers": 2, "trace_events": 917}),
    Measurement("obs_dist.factor", "x", 1.62 / 1.65),
]


class TestPredictBlock:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "trajectory.json")
        append_run(path, _run(PREDICT))
        (run,) = load_trajectory(path)
        assert run == _run(PREDICT)

    def test_derived_metrics(self):
        by_name = {m.name: m for m in suites.predict_suite("smoke")}
        coop, sim = by_name["predict.coop.time"], by_name["predict.sim.time"]
        assert coop.value == min(coop.samples) and sim.value == min(sim.samples)
        assert len(sim.samples) == suites.PREDICT_PARAMS["sim_repetitions"]
        assert by_name["predict.sim_overhead"].value == pytest.approx(sim.value / coop.value)
        assert by_name["predict.events_per_s"].params["events"] > 0

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "trajectory.json"
        append_run(str(path), _run(PREDICT))
        path.write_text(path.read_text().replace('"schema": 1', '"schema": 99', 1))
        with pytest.raises(ValueError, match="schema"):
            load_trajectory(str(path))


class TestObsDistBlock:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "trajectory.json")
        append_run(path, _run(OBS_DIST))
        (run,) = load_trajectory(path)
        assert run["measurements"] == OBS_DIST

    def test_derived_metrics(self, monkeypatch):
        arms = iter([(1.7, {}), (1.6, {"trace_events": 9, "trace_pids": 4, "metric_sources": 3}),
                     (1.6, {}), (1.62, {"trace_events": 9, "trace_pids": 4, "metric_sources": 3}),
                     (1.65, {}), (1.7, {"trace_events": 917, "trace_pids": 4, "metric_sources": 3})])
        monkeypatch.setattr(suites, "_obs_dist_arm", lambda p, enabled: next(arms))
        by_name = {m.name: m for m in suites.obs_dist_suite("smoke")}
        assert by_name["obs_dist.off.time"].value == 1.65
        assert by_name["obs_dist.on.time"].value == 1.62
        assert by_name["obs_dist.on.time"].params["trace_events"] == 917
        assert by_name["obs_dist.factor"].value == pytest.approx(1.62 / 1.65)

    def test_arm_without_a_payload_fails_the_suite(self, monkeypatch):
        monkeypatch.setattr(suites, "_obs_dist_arm", lambda p, enabled: (
            1.0, {"trace_events": 5, "trace_pids": 1, "metric_sources": 1} if enabled else {}))
        with pytest.raises(RuntimeError, match="payload"):
            suites.obs_dist_suite("smoke")


class TestAppendOnly:
    def test_append_keeps_earlier_runs_byte_identical(self, tmp_path):
        path = tmp_path / "trajectory.json"
        append_run(str(path), _run(PREDICT))
        first = path.read_text()
        append_run(str(path), _run(OBS_DIST, scale="full"))
        second = path.read_text()
        assert second.startswith(first[: -len("\n]}\n")])
        assert [r["scale"] for r in load_trajectory(str(path))] == ["smoke", "full"]

    @pytest.mark.parametrize(
        "text",
        ["{not json", '{"schema": 7, "runs": []}', '{"schema": 1, "runs": [{"scale": "full"}]}',
         '{"schema": 1, "runs": []}'],
    )
    def test_appending_to_a_malformed_file_raises_and_leaves_it(self, tmp_path, text):
        path = tmp_path / "trajectory.json"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError):
            append_run(str(path), _run(PREDICT))
        assert path.read_bytes() == text.encode()
