"""Span aggregation behind ``repro-sdn stats`` and the ``phases`` block."""

import pytest

from repro.obs.stats import format_table, summarize_spans


def _record(name, duration_s, span_id=1, parent_id=None, cpu_s=None):
    record = {
        "span_id": span_id,
        "parent_id": parent_id,
        "name": name,
        "start_s": 0.0,
        "duration_s": duration_s,
        "depth": 0,
    }
    if cpu_s is not None:
        record["cpu_s"] = cpu_s
    return record


def test_rows_aggregate_per_name():
    records = [
        _record("fast", 0.001, cpu_s=0.001),
        _record("fast", 0.003, cpu_s=0.002),
        _record("slow", 0.5),
    ]
    rows = summarize_spans(records)
    by_name = {row["name"]: row for row in rows}
    assert by_name["fast"]["count"] == 2
    assert by_name["fast"]["wall_s"] == pytest.approx(0.004)
    assert by_name["fast"]["self_s"] == pytest.approx(0.004)
    assert by_name["fast"]["cpu_s"] == pytest.approx(0.003)
    # Traces written without the CPU clock report zero CPU time.
    assert by_name["slow"]["cpu_s"] == 0.0


def test_self_time_subtracts_direct_children_only():
    # run (10 s) -> screen (6 s) -> build (2 s), build (1 s)
    #            -> trials (3 s)
    records = [
        _record("build", 2.0, span_id=3, parent_id=2, cpu_s=1.5),
        _record("build", 1.0, span_id=4, parent_id=2, cpu_s=0.5),
        _record("screen", 6.0, span_id=2, parent_id=1, cpu_s=4.0),
        _record("trials", 3.0, span_id=5, parent_id=1, cpu_s=3.0),
        _record("run", 10.0, span_id=1, cpu_s=8.0),
    ]
    by_name = {row["name"]: row for row in summarize_spans(records)}
    assert by_name["run"]["wall_s"] == 10.0
    assert by_name["run"]["self_s"] == 1.0  # 10 - (6 + 3)
    assert by_name["screen"]["self_s"] == 3.0  # 6 - (2 + 1)
    assert by_name["build"]["self_s"] == 3.0  # leaves: self == total
    assert by_name["trials"]["self_s"] == 3.0
    assert by_name["run"]["self_cpu_s"] == 1.0  # 8 - (4 + 3)
    assert by_name["screen"]["self_cpu_s"] == 2.0  # 4 - (1.5 + 0.5)
    # Self times telescope to the root's wall clock.
    assert sum(row["self_s"] for row in by_name.values()) == 10.0


def test_rows_sorted_by_total_descending_then_name():
    records = [
        _record("b_tied", 0.002),
        _record("a_tied", 0.002),
        _record("big", 1.0),
    ]
    assert [row["name"] for row in summarize_spans(records)] == [
        "big", "a_tied", "b_tied",
    ]


def test_unfinished_spans_are_skipped():
    records = [_record("done", 0.1), _record("open", None)]
    rows = summarize_spans(records)
    assert [row["name"] for row in rows] == ["done"]


def test_format_table_aligns_and_includes_every_row():
    rows = summarize_spans([_record("alpha", 0.25), _record("beta", 0.001)])
    rendered = format_table(rows)
    lines = rendered.splitlines()
    assert lines[0].split() == [
        "span", "count", "wall_s", "self_s", "cpu_s", "self_cpu_s",
    ]
    assert set(lines[1]) <= {"-", " "}
    assert any("alpha" in line and "0.250000" in line for line in lines)
    assert any("beta" in line for line in lines)
    # Every line in an aligned table has the same width.
    assert len({len(line) for line in lines}) == 1


def test_format_table_empty():
    assert "no finished spans" in format_table([])
