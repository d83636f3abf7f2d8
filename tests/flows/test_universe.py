"""Tests for the flow universe."""

import pytest

from repro.flows.flowid import FlowId
from repro.flows.universe import FlowUniverse

from tests.conftest import make_universe


class TestValidation:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            FlowUniverse((FlowId(src=1, dst=2),), (0.1, 0.2))

    def test_duplicate_flows_rejected(self):
        flow = FlowId(src=1, dst=2)
        with pytest.raises(ValueError, match="duplicate"):
            FlowUniverse((flow, flow), (0.1, 0.2))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            make_universe([-0.1])

    @pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="finite"):
            make_universe([0.1, float(rate)])


class TestQueries:
    def test_len(self):
        assert len(make_universe([0.1, 0.2, 0.3])) == 3

    def test_index_of_and_rate_of(self):
        universe = make_universe([0.1, 0.7])
        flow = universe.flows[1]
        assert universe.index_of(flow) == 1
        assert universe.rates[universe.index_of(flow)] == 0.7

    def test_index_of_missing_raises(self):
        universe = make_universe([0.1])
        with pytest.raises(ValueError):
            universe.index_of(FlowId(src=42, dst=43))

    def test_step_rates_scale_by_delta(self):
        universe = make_universe([0.5, 1.0])
        assert universe.step_rates(0.1) == pytest.approx([0.05, 0.1])

    def test_step_rates_positive_delta(self):
        with pytest.raises(ValueError):
            make_universe([0.1]).step_rates(0.0)

    def test_with_rates_keeps_flows(self):
        universe = make_universe([0.1, 0.2])
        updated = universe.with_rates([0.9, 0.8])
        assert updated.flows == universe.flows
        assert updated.rates == (0.9, 0.8)

    def test_with_rates_validates(self):
        with pytest.raises(ValueError):
            make_universe([0.1]).with_rates([0.1, 0.2])
