"""Tests for Table 2's records and the SVG Figure 2 renderer."""

import pytest

from repro.analysis.figure2_svg import render_figure2_svg
from repro.analysis.record import append_run, load_trajectory
from repro.analysis.stats import mean
from repro.analysis.suites import report_records

from .test_reports import fake_report


@pytest.fixture
def reports():
    factors = {"KJ-VC": (1.5, 2.0), "KJ-SS": (1.1, 1.3), "TJ-SP": (1.05, 1.1)}
    return [
        fake_report("Alpha", 1.0, 1_000_000, factors),
        fake_report("Beta", 0.5, 2_000_000, factors),
    ]


def _table2_run(reports):
    records = [m for r in reports for m in report_records("table2", r, mean)]
    return {"fingerprint": {"nproc": 1}, "scale": "small", "measurements": records, "bounds": []}


class TestJsonRoundTrip:
    def test_roundtrip_preserves_everything(self, reports, tmp_path):
        path = str(tmp_path / "table2.json")
        append_run(path, _table2_run(reports))
        (run,) = load_trajectory(path)
        back = {m.name: m for m in run["measurements"]}
        for r in reports:
            base = back[f"table2.{r.name}.none.time"]
            assert base.samples == r.baseline.times
            assert base.params["peak_bytes"] == r.baseline.peak_bytes
            for p in r.policies:
                assert back[f"table2.{r.name}.{p}.time"].samples == r.policies[p].times
                assert back[f"table2.{r.name}.{p}.overhead"].value == pytest.approx(r.time_overhead(p))

    def test_file_roundtrip(self, reports, tmp_path):
        path = str(tmp_path / "table2.json")
        append_run(path, _table2_run(reports))
        (run,) = load_trajectory(path)
        names = [m.name for m in run["measurements"]]
        assert names[0] == "table2.Alpha.none.time"
        assert names[-1] == "table2.Beta.TJ-SP.overhead"

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "table2.json"
        path.write_text('{"schema": 99, "runs": []}')
        with pytest.raises(ValueError, match="unsupported trajectory schema"):
            load_trajectory(str(path))

    def test_json_is_deterministic(self, reports, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        append_run(str(a), _table2_run(reports))
        append_run(str(b), _table2_run(reports))
        assert a.read_bytes() == b.read_bytes()


class TestSvg:
    def test_valid_svg_structure(self, reports):
        svg = render_figure2_svg(reports)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert svg.count("<rect") >= 2 * 4  # bars for 2 groups x 4 configs

    def test_benchmarks_and_configs_labelled(self, reports):
        svg = render_figure2_svg(reports)
        for token in ("Alpha", "Beta", "KJ-VC", "TJ-SP", "baseline"):
            assert token in svg

    def test_whiskers_present(self, reports):
        svg = render_figure2_svg(reports)
        assert "<line" in svg  # CI whiskers

    def test_custom_title_escaped(self, reports):
        svg = render_figure2_svg(reports, title="a < b & c")
        assert "a &lt; b &amp; c" in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_figure2_svg([])
