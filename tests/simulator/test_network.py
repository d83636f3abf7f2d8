"""Tests for network assembly, switch pipeline, and controller."""

import numpy as np
import pytest

from repro.flows.config import ConfigGenerator, ConfigParams
from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network
from repro.simulator.probing import Prober
from repro.simulator.topology import linear_topology


def small_setup(n_hosts=4, rates=None, cache_size=3, seed=0, **kwargs):
    """A small network: n hosts + server, one reactive rule per host."""
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = tuple(FlowId(src=base + i, dst=server) for i in range(n_hosts))
    universe = FlowUniverse(flows, tuple(rates or [0.2] * n_hosts))
    rules = [
        Rule(
            name=f"r{i}",
            src=Match.exact(base + i),
            dst=Match.exact(server),
            priority=900 + i,
            idle_timeout=1.0,
        )
        for i in range(n_hosts)
    ]
    network = Network(
        rules,
        universe,
        cache_size=cache_size,
        rng=np.random.default_rng(seed),
        **kwargs,
    )
    return network, universe


class TestConstruction:
    def test_default_topology_is_stanford(self):
        network, _ = small_setup()
        assert len(network.switches) == 16
        assert network.ingress_name == "boza"
        assert network.server_switch_name == "yoza"

    def test_custom_topology(self):
        network, _ = small_setup(topology=linear_topology(3))
        assert set(network.switches) == {"s0", "s1", "s2"}

    def test_hosts_attached(self):
        network, universe = small_setup()
        for flow in universe.flows:
            assert flow.src in network.host_by_ip
        assert str_to_ip("10.0.1.16") in network.host_by_ip
        assert "attacker" in network.hosts

    def test_attacker_on_ingress_switch(self):
        network, _ = small_setup()
        assert network.hosts["attacker"].switch_name == network.ingress_name

    def test_reactive_capacity_reserves_cache_slots(self):
        network, _ = small_setup(cache_size=3)
        table = network.ingress_switch.table
        permanent = sum(1 for e in table.entries if not e.evictable)
        assert table.capacity == permanent + 3

    def test_only_ingress_is_reactive(self):
        network, _ = small_setup()
        reactive = [s.name for s in network.switches.values() if s.reactive]
        assert reactive == [network.ingress_name]


class TestRouting:
    def test_route_port_local_host(self):
        network, universe = small_setup()
        host = network.host_by_ip[universe.flows[0].src]
        port = network.route_port(host.switch_name, host.ip)
        assert port == host.port

    def test_route_port_remote_host_points_to_neighbor(self):
        network, _ = small_setup()
        server_ip = str_to_ip("10.0.1.16")
        port = network.route_port(network.ingress_name, server_ip)
        kind, name = network._ports[network.ingress_name][port]
        assert kind == "switch"

    def test_route_port_unknown_ip(self):
        network, _ = small_setup()
        with pytest.raises(KeyError):
            network.route_port(network.ingress_name, str_to_ip("9.9.9.9"))


class TestEndToEnd:
    def test_echo_round_trip(self, obs):
        network, universe = small_setup()
        flow = universe.flows[0]
        network.schedule_flow_arrival(flow, 0.01)
        network.sim.run_until(1.0)
        assert obs.metrics.counter("sim.network.replies").value == 1

    def test_miss_then_hit_installs_rule(self, obs):
        network, universe = small_setup()
        flow = universe.flows[0]
        network.schedule_flow_arrival(flow, 0.01)
        network.sim.run_until(0.5)
        assert network.cached_reactive_rules() == ("r0",)
        assert obs.metrics.counter("sim.controller.installs").value == 1
        # Second packet of the same flow: no new packet-in.
        network.schedule_flow_arrival(flow, 0.5)
        network.sim.run_until(0.9)
        assert obs.metrics.counter("sim.controller.packet_ins").value == 1

    def test_rule_expires_after_idle_timeout(self):
        network, universe = small_setup()
        network.schedule_flow_arrival(universe.flows[0], 0.01)
        network.sim.run_until(2.0)  # idle timeout is 1 s
        assert network.cached_reactive_rules() == ()

    def test_uncovered_flow_forwarded_without_install(self, obs):
        network, universe = small_setup()
        alien = FlowId(src=str_to_ip("10.0.1.9"), dst=str_to_ip("10.0.1.16"))
        # 10.0.1.9 is not one of the 4 hosts; attach-less sources cannot
        # send, so probe via the attacker (spoofed).
        network.send_probe(alien, probe_id=1)
        network.sim.run_until(0.5)
        assert obs.metrics.counter("sim.controller.forward_only").value >= 0
        assert network.cached_reactive_rules() == ()

    def test_eviction_when_cache_full(self, obs):
        network, universe = small_setup(cache_size=2)
        for index in range(3):
            network.schedule_flow_arrival(universe.flows[index], 0.01 * (index + 1))
        network.sim.run_until(1.0)
        cached = network.cached_reactive_rules()
        assert len(cached) == 2
        assert obs.metrics.counter("sim.table.evictions").value == 1


class TestProbing:
    def test_probe_miss_is_slow_hit_is_fast(self):
        network, universe = small_setup()
        prober = Prober(network)
        flow = universe.flows[1]
        miss = prober.measure(flow)
        hit = prober.measure(flow)
        assert miss.observed and hit.observed
        assert not miss.hit
        assert hit.hit
        assert miss.rtt > hit.rtt

    def test_probe_outcome_bits(self):
        network, universe = small_setup()
        prober = Prober(network)
        flow = universe.flows[2]
        assert prober.outcomes([flow, flow]) == [0, 1]

    def test_spoofed_probe_observed_via_victim(self):
        network, universe = small_setup()
        prober = Prober(network)
        result = prober.measure(universe.flows[0])
        assert result.observed  # reply to the victim's address was seen

    def test_probe_timeout_unobserved(self, monkeypatch):
        # A probe into a network where the destination host cannot
        # respond: point the flow at the attacker itself via an
        # untracked address -> KeyError guards routing instead.
        network, universe = small_setup()
        monkeypatch.setattr(Prober, "TIMEOUT", 0.001)
        prober = Prober(network)
        # With an absurdly small timeout even the hit path may miss the
        # deadline only rarely; force a miss path (controller RTT ~4ms).
        result = prober.measure(universe.flows[3])
        assert result.rtt is None or result.rtt < 0.001
        assert not result.hit  # unobserved classifies as miss

    def test_prober_validation(self):
        network, _ = small_setup()
        with pytest.raises(ValueError, match="retries"):
            Prober(network, retries=-1)


class TestPaperScaleNetwork:
    def test_full_configuration_runs(self, obs):
        params = ConfigParams()
        config = ConfigGenerator(params, seed=3).sample()
        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(1),
        )
        from repro.flows.arrival import sample_schedule

        schedule = sample_schedule(
            config.universe, 5.0, np.random.default_rng(2)
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(5.0)
        # Every request got a reply.
        assert obs.metrics.counter("sim.network.replies").value == len(schedule)
        # Reactive rules never exceed the cache budget.
        assert len(network.cached_reactive_rules()) <= config.cache_size
