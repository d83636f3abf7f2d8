"""The default backend records nothing, allocates nothing, raises on export."""

import pytest

from repro.obs import (
    NULL,
    Instrumentation,
    NullInstrumentation,
    counter_inc,
    get_instrumentation,
    set_instrumentation,
    span,
    use_instrumentation,
)
from repro.obs.metrics import _NULL_COUNTER, _NULL_GAUGE, _NULL_HISTOGRAM
from repro.obs.trace import _NULL_SPAN


class TestDefault:
    def test_default_current_is_the_null_singleton(self):
        assert get_instrumentation() is NULL
        assert isinstance(NULL, NullInstrumentation)
        assert NULL.enabled is False
        assert Instrumentation.enabled is True

    def test_module_helpers_are_silent_by_default(self):
        counter_inc("any.name.at.all")
        with span("ignored", attr=1):
            pass
        # Nothing was registered or recorded anywhere.
        assert len(NULL.metrics) == 0
        assert len(NULL.tracer) == 0


class TestSharedSingletons:
    def test_every_instrument_is_the_shared_noop(self):
        assert NULL.counter("a.b") is _NULL_COUNTER
        assert NULL.counter("c.d") is _NULL_COUNTER
        assert NULL.gauge("a.b") is _NULL_GAUGE
        assert NULL.histogram("a.b") is _NULL_HISTOGRAM
        assert NULL.span("a.b") is _NULL_SPAN

    def test_noop_instruments_discard_everything(self):
        NULL.counter("a.b").inc(10)
        NULL.gauge("a.b").set(3.0)
        NULL.histogram("a.b").observe(1.0)
        assert _NULL_COUNTER.value == 0
        assert _NULL_GAUGE.value == 0.0
        assert _NULL_HISTOGRAM.count == 0

    def test_null_registry_skips_name_validation(self):
        # Hot paths must not pay the regex; any string is accepted.
        assert NULL.counter("NOT A VALID NAME") is _NULL_COUNTER

    def test_null_span_swallows_exceptions_status(self):
        with pytest.raises(ValueError):
            with NULL.span("x"):
                raise ValueError("propagates")
        assert _NULL_SPAN.status == "ok"


class TestExport:
    def test_write_trace_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="records no"):
            NULL.write_trace(tmp_path / "t.ndjson")

    def test_write_metrics_raises(self, tmp_path):
        with pytest.raises(RuntimeError, match="records no"):
            NULL.write_metrics(tmp_path / "m.json")


class TestInstallation:
    def test_use_instrumentation_restores_previous(self):
        obs = Instrumentation()
        assert get_instrumentation() is NULL
        with use_instrumentation(obs) as installed:
            assert installed is obs
            assert get_instrumentation() is obs
        assert get_instrumentation() is NULL

    def test_use_instrumentation_restores_on_exception(self):
        obs = Instrumentation()
        with pytest.raises(RuntimeError):
            with use_instrumentation(obs):
                raise RuntimeError("boom")
        assert get_instrumentation() is NULL

    def test_set_instrumentation_returns_previous(self):
        obs = Instrumentation()
        previous = set_instrumentation(obs)
        try:
            assert previous is NULL
            assert get_instrumentation() is obs
        finally:
            set_instrumentation(previous)

    def test_module_helpers_follow_current(self):
        obs = Instrumentation()
        with use_instrumentation(obs):
            counter_inc("test.events", 3)
            with span("test.region", case="helpers"):
                pass
        assert obs.counter("test.events").value == 3
        assert [s.name for s in obs.tracer.records] == ["test.region"]
