"""Unit-level tests of the switch pipeline and reactive controller."""

import numpy as np
import pytest

from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.messages import ECHO_REQUEST, Packet
from repro.simulator.network import Network
from repro.simulator.timing import LatencyModel
from repro.simulator.topology import linear_topology


@pytest.fixture
def network(obs):
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = tuple(FlowId(src=base + i, dst=server) for i in range(2))
    universe = FlowUniverse(flows, (0.1, 0.1))
    rules = [
        Rule(
            name="r0",
            src=Match.exact(base),
            dst=Match.exact(server),
            priority=900,
            idle_timeout=1.0,
        ),
        Rule(
            name="r1",
            src=Match.exact(base + 1),
            dst=Match.exact(server),
            priority=901,
            idle_timeout=1.0,
        ),
    ]
    return Network(
        rules,
        universe,
        cache_size=2,
        topology=linear_topology(2),
        rng=np.random.default_rng(0),
        latency=LatencyModel.noiseless(),
    )


class TestSwitchPipeline:
    def test_miss_raises_packet_in(self, network, obs):
        flow = network.universe.flows[0]
        network.schedule_flow_arrival(flow, 0.0)
        network.sim.run_until(0.5)
        assert obs.metrics.counter("sim.switch.packet_ins").value == 1
        assert obs.metrics.counter("sim.controller.packet_ins").value == 1

    def test_hit_forwards_without_controller(self, network, obs):
        flow = network.universe.flows[0]
        network.schedule_flow_arrival(flow, 0.0)
        network.sim.run_until(0.5)
        before = obs.metrics.counter("sim.controller.packet_ins").value
        network.schedule_flow_arrival(flow, 0.5)
        network.sim.run_until(0.9)
        assert obs.metrics.counter("sim.controller.packet_ins").value == before

    def test_duplicate_packet_out_is_harmless(self, network, obs):
        from repro.simulator.messages import PacketOut

        switch = network.ingress_switch
        packet = Packet(flow=network.universe.flows[0], kind=ECHO_REQUEST)
        # No pending entry for this packet: handle_packet_out must be a
        # no-op rather than a crash (duplicate release).
        switch.handle_packet_out(PacketOut(packet=packet, out_port=1))
        assert obs.metrics.counter("sim.switch.forwarded").value == 0

    def test_preinstall_rejects_timeout_rules(self, network):
        switch = network.ingress_switch
        rule = Rule(name="temp", priority=5, idle_timeout=1.0)
        with pytest.raises(ValueError, match="permanent"):
            switch.preinstall(rule, out_port=1)

    def test_flood_counts_unmatched(self, network, obs):
        # A non-ICMP packet toward an unknown destination matches only
        # the flood rule.
        switch = network.ingress_switch
        alien = Packet(
            flow=FlowId(src=1, dst=2, proto=200), kind=ECHO_REQUEST
        )
        switch.receive(alien, in_port=1)
        assert obs.metrics.counter("sim.switch.flooded").value == 1

    def test_table_counts_what_the_side_channel_sees(self, network, obs):
        # The permanent to-controller and flood entries win every
        # reactive miss; those lookups count as table misses.
        for flow in network.universe.flows:
            for start in (0.0, 0.3, 1.8):
                network.schedule_flow_arrival(flow, start)
        network.ingress_switch.receive(
            Packet(flow=FlowId(src=1, dst=2, proto=200), kind=ECHO_REQUEST),
            in_port=1,
        )
        network.sim.run_until(3.0)
        counters = obs.metrics_document()["counters"]
        hits = counters["sim.table.hits"]
        misses = counters["sim.table.misses"]
        assert hits > 0
        assert counters["sim.switch.packet_ins"] > 0
        assert counters["sim.switch.flooded"] == 1
        assert hits + misses == counters["sim.switch.received"]
        assert misses == (
            counters["sim.switch.packet_ins"] + counters["sim.switch.flooded"]
        )


class TestReactiveController:
    def test_installs_highest_priority_covering(self, network):
        flow = network.universe.flows[1]
        network.schedule_flow_arrival(flow, 0.0)
        network.sim.run_until(0.5)
        assert network.cached_reactive_rules() == ("r1",)

    def test_forward_only_for_uncovered(self, network, obs):
        base = str_to_ip("10.0.1.0")
        server = str_to_ip("10.0.1.16")
        # Attacker-spoofed flow from an address with no covering rule
        # but a monitored destination: packet-in, then packet-out only.
        network.send_probe(FlowId(src=base + 9, dst=server), probe_id=1)
        network.sim.run_until(0.5)
        assert obs.metrics.counter("sim.controller.forward_only").value == 1
        assert obs.metrics.counter("sim.controller.installs").value == 0
        # The probe still completes (reply observed) -- wait, the reply
        # returns to 10.0.1.9, which has no host; the observation stays
        # pending but the network must not crash.
        assert network.probe_observation(1) is None

    def test_reinstall_refreshes_timers(self, network):
        flow = network.universe.flows[0]
        network.schedule_flow_arrival(flow, 0.0)
        network.sim.run_until(0.3)
        table = network.ingress_switch.table
        entry = next(e for e in table.entries if e.rule.name == "r0")
        first_install = entry.install_time
        # Force a second miss by expiring, then re-arrival.
        network.sim.run_until(2.0)
        network.schedule_flow_arrival(flow, 2.0)
        network.sim.run_until(2.5)
        entry = next(e for e in table.entries if e.rule.name == "r0")
        assert entry.install_time > first_install


class TestNoiselessTiming:
    def test_deterministic_rtt_components(self, network):
        from repro.simulator.probing import Prober

        prober = Prober(network)
        flow = network.universe.flows[0]
        miss = prober.measure(flow)
        hit = prober.measure(flow)
        latency = network.latency
        # Hit RTT on the 2-switch chain: host link + 2 lookups + inter-
        # switch link + server link, then the reverse, plus reply
        # turnaround.
        expected_hit = (
            6 * latency.link_mean
            + 4 * latency.lookup_mean
            + latency.host_reply_mean
        )
        assert hit.rtt == pytest.approx(expected_hit, rel=1e-6)
        expected_miss = expected_hit + (
            2 * latency.control_link_mean
            + latency.controller_proc_mean
            + latency.flowmod_install_mean
        )
        assert miss.rtt == pytest.approx(expected_miss, rel=1e-6)
