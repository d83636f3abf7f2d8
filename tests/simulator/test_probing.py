"""Dedicated tests for the attacker's prober."""

import numpy as np
import pytest

from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network
from repro.simulator.probing import ProbeResult, Prober
from repro.simulator.topology import linear_topology


@pytest.fixture
def network():
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = tuple(FlowId(src=base + i, dst=server) for i in range(3))
    universe = FlowUniverse(flows, (0.0, 0.0, 0.0))
    rules = [
        Rule(
            name=f"r{i}",
            src=Match.exact(base + i),
            dst=Match.exact(server),
            priority=900 + i,
            idle_timeout=2.0,
        )
        for i in range(3)
    ]
    return Network(
        rules,
        universe,
        cache_size=3,
        topology=linear_topology(3),
        rng=np.random.default_rng(1),
    )


class TestProbeResult:
    def test_hit_classification(self):
        flow = FlowId(src=1, dst=2)
        fast = ProbeResult(flow, 0.0, rtt=1e-4, threshold=1e-3)
        slow = ProbeResult(flow, 0.0, rtt=5e-3, threshold=1e-3)
        lost = ProbeResult(flow, 0.0, rtt=None, threshold=1e-3)
        assert fast.hit and fast.outcome == 1
        assert not slow.hit and slow.outcome == 0
        assert not lost.hit and not lost.observed


class TestMeasurement:
    def test_clock_stops_at_observation(self, network):
        prober = Prober(network)
        before = network.sim.now
        result = prober.measure(network.universe.flows[0])
        # The clock advanced by roughly the RTT, not the full timeout.
        assert network.sim.now - before == pytest.approx(result.rtt, abs=1e-9)

    def test_gap_between_probes(self, network):
        prober = Prober(network)
        flows = [network.universe.flows[0], network.universe.flows[1]]
        results = prober.measure_flows(flows)
        assert results[1].send_time - (
            results[0].send_time + results[0].rtt
        ) == pytest.approx(Prober.GAP, abs=1e-9)

    def test_outcomes_sequence(self, network):
        prober = Prober(network)
        flows = [network.universe.flows[0]] * 2 + [network.universe.flows[1]]
        assert prober.outcomes(flows) == [0, 1, 0]

    def test_probe_perturbs_cache(self, network):
        prober = Prober(network)
        assert network.cached_reactive_rules() == ()
        prober.measure(network.universe.flows[2])
        assert network.cached_reactive_rules() == ("r2",)

    def test_validation(self, network):
        # The timing the prober runs on is fixed; these are the checks
        # its constructor once made on it.
        assert Prober.THRESHOLD > 0 and Prober.TIMEOUT > 0 and Prober.GAP >= 0
        assert Prober.BACKOFF >= 1.0 and Prober.MAX_TIMEOUT >= Prober.TIMEOUT
        with pytest.raises(ValueError):
            Prober(network, retries=-1)
