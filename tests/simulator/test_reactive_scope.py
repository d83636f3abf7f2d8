"""Tests for the reactive-scope assembly option."""

import numpy as np
import pytest

from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network, NetworkConfig
from repro.simulator.probing import Prober
from repro.simulator.topology import linear_topology


def build(scope: str, seed: int = 0):
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = (FlowId(src=base, dst=server),)
    universe = FlowUniverse(flows, (0.0,))
    rules = [
        Rule(
            name="r0",
            src=Match.exact(base),
            dst=Match.exact(server),
            priority=900,
            idle_timeout=5.0,
        )
    ]
    return Network(
        rules,
        universe,
        cache_size=2,
        topology=linear_topology(3),
        rng=np.random.default_rng(seed),
        config=NetworkConfig(cache_size=2, reactive_scope=scope),
    )


class TestScopeValidation:
    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError, match="reactive_scope"):
            NetworkConfig(reactive_scope="some")


class TestAllSwitchesReactive:
    def test_every_switch_reactive(self):
        network = build("all")
        assert all(s.reactive for s in network.switches.values())

    def test_each_hop_raises_its_own_packet_in(self, obs):
        network = build("all")
        prober = Prober(network)
        prober.measure(network.universe.flows[0])
        # 3 switches on the chain each miss once.
        assert obs.metrics.counter("sim.controller.packet_ins").value == 3
        assert obs.metrics.counter("sim.controller.installs").value == 3

    def test_first_packet_pays_per_hop_setup(self):
        ingress_only = build("ingress", seed=1)
        everywhere = build("all", seed=1)
        miss_single = Prober(ingress_only).measure(
            ingress_only.universe.flows[0]
        )
        miss_all = Prober(everywhere).measure(
            everywhere.universe.flows[0]
        )
        # Roughly three controller round trips instead of one.
        assert miss_all.rtt > 2 * miss_single.rtt

    def test_hits_fast_once_all_hops_cached(self):
        network = build("all")
        prober = Prober(network)
        prober.measure(network.universe.flows[0])  # installs everywhere
        second = prober.measure(network.universe.flows[0])
        assert second.hit

    def test_rules_cached_on_every_hop(self):
        network = build("all")
        Prober(network).measure(network.universe.flows[0])
        for switch in network.switches.values():
            assert "r0" in switch.table


class TestIngressScopeUnchanged:
    def test_transit_switches_not_reactive(self):
        network = build("ingress")
        reactive = [s.name for s in network.switches.values() if s.reactive]
        assert reactive == [network.ingress_name]

    def test_single_packet_in(self, obs):
        network = build("ingress")
        Prober(network).measure(network.universe.flows[0])
        assert obs.metrics.counter("sim.controller.packet_ins").value == 1
