"""Counter/gauge/histogram semantics and the registry document."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    validate_metric_name,
)


class TestNames:
    def test_dotted_lowercase_accepted(self):
        assert validate_metric_name("sim.table.hits") == "sim.table.hits"
        assert validate_metric_name("engine.score.batch_ms")

    @pytest.mark.parametrize(
        "bad", ["hits", "Sim.table.hits", "sim..hits", "sim.table.", "a b.c"]
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid metric name"):
            validate_metric_name(bad)


class TestCounter:
    def test_increments_accumulate(self):
        counter = Counter("a.b")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = Counter("a.b")
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)
        assert counter.value == 0


class TestGauge:
    def test_last_write_wins(self):
        gauge = Gauge("a.b")
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestHistogram:
    def test_default_bounds_are_decades(self):
        assert DEFAULT_BUCKET_BOUNDS[0] == 1e-6
        assert DEFAULT_BUCKET_BOUNDS[-1] == 1e6
        assert list(DEFAULT_BUCKET_BOUNDS) == sorted(DEFAULT_BUCKET_BOUNDS)

    def test_bucketing_and_stats(self):
        histogram = Histogram("a.b", bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.bucket_counts == [1, 2, 1, 1]
        assert histogram.count == 5
        assert histogram.low == 0.5
        assert histogram.high == 500.0
        assert histogram.mean == pytest.approx(112.1)

    def test_boundary_value_lands_in_le_bucket(self):
        histogram = Histogram("a.b", bounds=(1.0, 10.0))
        histogram.observe(10.0)
        assert histogram.bucket_counts == [0, 1, 0]

    def test_empty_mean_is_none(self):
        assert Histogram("a.b").mean is None

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("a.b", bounds=(10.0, 1.0))

    def test_to_json_sparse_buckets(self):
        histogram = Histogram("a.b", bounds=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(99.0)
        payload = histogram.to_json()
        assert payload["buckets"] == {"le_1": 1, "inf": 1}
        assert payload["count"] == 2

    def test_merge_equals_one_histogram(self):
        values = (0.5, 5.0, 50.0, 500.0)
        whole = Histogram("a.b", bounds=(1.0, 10.0, 100.0))
        left = Histogram("a.b", bounds=(1.0, 10.0, 100.0))
        right = Histogram("a.b", bounds=(1.0, 10.0, 100.0))
        for value in values:
            whole.observe(value)
        for value in values[:1]:
            left.observe(value)
        for value in values[1:]:
            right.observe(value)
        left.merge(right)
        left.merge(Histogram("a.b", bounds=(1.0, 10.0, 100.0)))
        assert left.to_json() == whole.to_json()

    def test_merge_rejects_other_bounds(self):
        with pytest.raises(ValueError, match="bounds differ"):
            Histogram("a.b").merge(Histogram("a.b", bounds=(1.0,)))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("c.d") is registry.gauge("c.d")
        assert registry.histogram("e.f") is registry.histogram("e.f")
        assert len(registry) == 3

    def test_invalid_name_rejected_at_creation(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("UPPER")

    def test_document_is_sorted_and_versioned(self):
        registry = MetricsRegistry()
        registry.counter("z.last").inc(2)
        registry.counter("a.first").inc()
        registry.gauge("m.level").set(4)
        registry.histogram("h.lat").observe(3.0)
        document = registry.to_document()
        assert document["schema_version"] == 1
        assert list(document["counters"]) == ["a.first", "z.last"]
        assert document["counters"]["z.last"] == 2
        assert document["gauges"] == {"m.level": 4.0}
        assert document["histograms"]["h.lat"]["count"] == 1

    def test_merge_adds_counters_and_histograms_keeps_gauges(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc(2)
        registry.gauge("m.level").set(4)
        other = MetricsRegistry()
        other.counter("a.b").inc(3)
        other.counter("z.zero").inc(0)
        other.gauge("m.level").set(9)
        other.histogram("h.lat").observe(3.0)
        registry.merge(other)
        document = registry.to_document()
        assert document["counters"] == {"a.b": 5, "z.zero": 0}
        assert document["gauges"] == {"m.level": 4.0}
        assert document["histograms"] == other.to_document()["histograms"]
