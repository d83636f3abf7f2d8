"""Span nesting, NDJSON round-trips, and trace-file validation."""

import pytest

from repro.obs.trace import (
    REQUIRED_SPAN_KEYS,
    Tracer,
    read_ndjson,
)


def test_span_records_monotonic_timing():
    tracer = Tracer()
    with tracer.span("work") as span:
        pass
    assert span.start_s >= 0.0
    assert span.duration_s >= 0.0
    assert span.status == "ok"
    assert len(tracer) == 1


def test_nesting_assigns_parent_and_depth():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            with tracer.span("leaf") as leaf:
                pass
    assert outer.parent_id is None and outer.depth == 0
    assert inner.parent_id == outer.span_id and inner.depth == 1
    assert leaf.parent_id == inner.span_id and leaf.depth == 2
    # Children finish (and are recorded) before their parents.
    assert [s.name for s in tracer.records] == ["leaf", "inner", "outer"]


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("first") as first:
            pass
        with tracer.span("second") as second:
            pass
    assert first.parent_id == parent.span_id
    assert second.parent_id == parent.span_id
    assert first.span_id != second.span_id


def test_exception_marks_span_error_and_propagates():
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.span("failing"):
            raise RuntimeError("boom")
    (span,) = tracer.records
    assert span.status == "error"
    assert span.duration_s is not None


def test_attrs_are_json_safe_and_sorted():
    tracer = Tracer()
    with tracer.span("attrs", zeta=1, alpha="x", obj=object()) as span:
        span.set_attr("beta", 2.5)
        span.set_attr("weird", {1, 2})
    record = span.to_json()
    assert list(record["attrs"]) == sorted(record["attrs"])
    assert record["attrs"]["alpha"] == "x"
    assert isinstance(record["attrs"]["obj"], str)
    assert isinstance(record["attrs"]["weird"], str)


def test_ndjson_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("outer", kind="test"):
        with tracer.span("inner"):
            pass
    path = tracer.write_ndjson(tmp_path / "t.ndjson")
    records = read_ndjson(path)
    assert len(records) == 2
    for record in records:
        for key in REQUIRED_SPAN_KEYS:
            assert key in record
        assert record["schema_version"] == 1
    by_name = {record["name"]: record for record in records}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["outer"]["attrs"] == {"kind": "test"}


def test_read_ndjson_skips_blank_lines(tmp_path):
    tracer = Tracer()
    with tracer.span("only"):
        pass
    path = tracer.write_ndjson(tmp_path / "t.ndjson")
    path.write_text(path.read_text() + "\n\n")
    assert len(read_ndjson(path)) == 1


def test_read_ndjson_reports_line_of_bad_json(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"span_id": 1, "name": "a", "start_s": 0, '
                    '"duration_s": 0, "depth": 0}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.ndjson:2"):
        read_ndjson(path)


def test_read_ndjson_rejects_non_object_lines(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ValueError, match="JSON object"):
        read_ndjson(path)


def test_read_ndjson_rejects_missing_keys(tmp_path):
    path = tmp_path / "bad.ndjson"
    path.write_text('{"span_id": 1, "name": "a"}\n')
    with pytest.raises(ValueError, match="missing"):
        read_ndjson(path)
