"""Tests for the timing/state-count tables and the report renderers."""

import pytest

from repro.experiments.report import (
    CDF_ROWS,
    format_cdf,
    format_series,
    format_table,
    paper_vs_measured,
)
from repro.experiments.tables import statecount_report, timing_table


class TestTimingTable:
    @pytest.fixture(scope="class")
    def table(self):
        return timing_table(n_samples=60, seed=1)

    def test_populations_separable(self, table):
        assert table["hit"].mean < table["threshold"] < table["miss"].mean

    def test_threshold_accuracy_high(self, table):
        assert table["threshold_accuracy"] > 0.99

    def test_measured_close_to_paper(self, table):
        hit, miss = table["hit"], table["miss"]
        assert hit.mean == pytest.approx(hit.paper_mean, rel=0.25)
        assert miss.mean == pytest.approx(miss.paper_mean, rel=0.25)

    def test_sample_counts(self, table):
        assert table["hit"].samples == 60
        assert table["miss"].samples == 60


class TestStatecountReport:
    def test_experiment_values(self):
        report = statecount_report()
        exp = report["experiment"]
        assert exp["compact"] == 2509  # sum C(12, 1..6)
        assert exp["basic"] > exp["compact"] * 10**6

    def test_paper_example_formula(self):
        report = statecount_report()
        example = report["paper_example"]
        # C(10,8) * 8! * 101^8 dominates: the formula value is huge.
        assert example["basic_formula"] > 1e21
        assert example["paper_quoted"] == pytest.approx(5.9e7)


class TestReportRendering:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["bb", 2.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "2.500" in text

    def test_format_table_none_rendered_as_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text

    def test_format_table_scientific_for_extremes(self):
        text = format_table(["x"], [[1.23e9], [4.5e-7]])
        assert "e+09" in text or "e+9" in text
        assert "e-07" in text or "e-7" in text

    def test_format_series(self):
        text = format_series(
            "x", [1, 2], {"a": [0.1, 0.2], "b": [None, 0.4]}
        )
        assert "x" in text and "a" in text and "b" in text
        assert text.count("\n") >= 3

    def test_format_cdf_thinning(self):
        points = [(i / 100, (i + 1) / 100) for i in range(100)]
        text = format_cdf(points)
        # Thinned to CDF_ROWS rows, the last point, a header and a rule.
        assert len(text.splitlines()) <= CDF_ROWS + 4

    def test_paper_vs_measured_ratio(self):
        text = paper_vs_measured([("metric", 2.0, 1.0)])
        assert "0.500" in text

    def test_paper_vs_measured_zero_paper_value(self):
        text = paper_vs_measured([("metric", 0, 1.0)])
        assert "-" in text
