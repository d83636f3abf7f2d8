"""Tests for the network event monitor."""

import numpy as np
import pytest

from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network
from repro.simulator.timing import LatencyModel
from repro.simulator.topology import linear_topology

from tests.oracles.monitor import CacheSnapshot, NetworkMonitor, RuleLifetimes


@pytest.fixture
def network():
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = tuple(FlowId(src=base + i, dst=server) for i in range(2))
    universe = FlowUniverse(flows, (0.1, 0.1))
    rules = [
        Rule(
            name=f"r{i}",
            src=Match.exact(base + i),
            dst=Match.exact(server),
            priority=900 + i,
            idle_timeout=0.5,
        )
        for i in range(2)
    ]
    return Network(
        rules,
        universe,
        cache_size=2,
        topology=linear_topology(2),
        rng=np.random.default_rng(0),
        latency=LatencyModel.noiseless(),
    )


class TestSnapshots:
    def test_snapshot_records_cache(self, network):
        monitor = NetworkMonitor(network)
        assert monitor.snapshot().rules == ()
        network.schedule_flow_arrival(network.universe.flows[0], 0.0)
        network.sim.run_until(0.2)
        assert monitor.snapshot().rules == ("r0",)

    def test_arm_samples_periodically(self, network):
        monitor = NetworkMonitor(network, sample_interval=0.1)
        monitor.arm(until=1.0)
        network.schedule_flow_arrival(network.universe.flows[0], 0.05)
        network.sim.run_until(1.0)
        assert len(monitor.snapshots) == 11  # t = 0.0 .. 1.0
        # The rule appears while alive, disappears after the idle TTL.
        assert monitor.rule_was_cached("r0", 0.1, 0.5)
        assert not monitor.rule_was_cached("r0", 0.8, 1.0)

    def test_arm_idempotent(self, network):
        monitor = NetworkMonitor(network, sample_interval=0.25)
        monitor.arm(until=0.5)
        monitor.arm(until=0.5)  # no duplicate scheduling
        network.sim.run_until(0.5)
        assert len(monitor.snapshots) == 3

    def test_sample_interval_validation(self, network):
        with pytest.raises(ValueError):
            NetworkMonitor(network, sample_interval=0.0)


class TestQueries:
    def test_presence_fraction(self, network):
        monitor = NetworkMonitor(network, sample_interval=0.1)
        monitor.arm(until=1.0)
        network.schedule_flow_arrival(network.universe.flows[0], 0.01)
        network.sim.run_until(1.0)
        fraction = monitor.presence_fraction("r0")
        # Alive roughly from 0.0 to ~0.5 of an 11-sample window.
        assert 0.2 < fraction < 0.8

    def test_presence_fraction_requires_snapshots(self, network):
        with pytest.raises(ValueError):
            NetworkMonitor(network).presence_fraction("r0")

    def test_occupancy_series_and_max(self, network):
        monitor = NetworkMonitor(network, sample_interval=0.1)
        monitor.arm(until=0.4)
        for index in range(2):
            network.schedule_flow_arrival(
                network.universe.flows[index], 0.02 + 0.01 * index
            )
        network.sim.run_until(0.4)
        series = monitor.occupancy_series()
        assert [t for t, _ in series] == sorted(t for t, _ in series)
        assert monitor.max_occupancy() == 2


class TestRuleLifetimes:
    def test_intervals_reconstructed(self):
        lifetimes = RuleLifetimes()
        a = CacheSnapshot(0.0, ())
        b = CacheSnapshot(1.0, ("r0",))
        c = CacheSnapshot(2.0, ())
        lifetimes.observe(a, b)
        lifetimes.observe(b, c)
        assert lifetimes.intervals["r0"] == [(1.0, 2.0)]

    def test_open_interval_residency(self):
        lifetimes = RuleLifetimes()
        lifetimes.observe(CacheSnapshot(0.0, ()), CacheSnapshot(1.0, ("r0",)))
        assert lifetimes.total_residency("r0", horizon=4.0) == pytest.approx(
            3.0
        )

    def test_unknown_rule_zero_residency(self):
        assert RuleLifetimes().total_residency("ghost", 10.0) == 0.0
