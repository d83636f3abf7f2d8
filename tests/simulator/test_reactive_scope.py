"""Only the ingress switch is reactive (the Section VI-A setup).

On a three-switch chain, the transit switches carry proactive routing,
so the first packet of a monitored flow takes one controller round trip
at its ingress and nowhere else.
"""

import numpy as np

from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network
from repro.simulator.probing import Prober
from repro.simulator.topology import linear_topology


def build(seed: int = 0):
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
    )


class TestIngressScopeUnchanged:
    def test_transit_switches_not_reactive(self):
        network = build()
        reactive = [s.name for s in network.switches.values() if s.reactive]
        assert reactive == [network.ingress_name]

    def test_single_packet_in(self, obs):
        network = build()
        Prober(network).measure(network.universe.flows[0])
        assert obs.metrics.counter("sim.controller.packet_ins").value == 1
