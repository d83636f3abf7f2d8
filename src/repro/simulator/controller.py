"""The reactive SDN controller (the Ryu stand-in).

On a packet-in the controller looks up the highest-priority policy rule
covering the flow, computes the output port from its topology view, and
-- after a processing delay -- returns a flow-mod (rule installation)
followed by a packet-out releasing the buffered packet.  Flows the
policy does not cover are released without installing anything, exactly
like the paper's handling of probe flows that match no rule.

The controller is deliberately stateless across packet-ins (each miss is
handled independently); repeated misses for the same flow before the
rule lands re-install the same rule, which on the switch refreshes the
entry's timers -- matching OVS flow-mod semantics.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.flows.rules import Rule, RuleTable
from repro.obs import get_instrumentation
from repro.simulator.messages import FlowMod, PacketIn, PacketOut

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import Network
    from repro.simulator.switch import Switch


class ReactiveController:
    """Reactive rule installation from a fixed policy."""

    def __init__(self, network: "Network", policy: RuleTable) -> None:
        self.network = network
        self.policy = policy
        # Resolved once here (see docs/OBSERVABILITY.md); each packet-in
        # is one control-plane round-trip.
        obs = get_instrumentation().metrics
        self._obs_packet_ins = obs.counter("sim.controller.packet_ins")
        self._obs_installs = obs.counter("sim.controller.installs")
        self._obs_forward_only = obs.counter("sim.controller.forward_only")

    def handle_packet_in(self, message: PacketIn) -> None:
        """Process one miss notification."""
        network = self.network
        self._obs_packet_ins.inc()
        switch = network.switches[message.switch_name]
        out_port = network.route_port(switch.name, message.packet.flow.dst)
        rule = self.policy.highest_covering(message.packet.flow)
        if rule is not None and network.proactive_defense_active:
            # Under the proactive defense every policy rule is already
            # installed; a packet-in can only be a race or an uncovered
            # flow -- never install reactively.
            rule = None
        processing = network.latency.controller_processing_delay(network.normals)
        down_link = network.latency.control_link_delay(network.normals)
        if network.faults is not None:
            # Injected controller jitter / outage stall (docs/FAULTS.md).
            processing += network.faults.controller_extra_delay(network.sim.now)
            if rule is not None and network.faults.drop_flow_mod():
                # Injected flow-mod loss: the installation never lands,
                # but the packet-out is a separate message and still
                # releases the buffered packet (an observed miss).
                rule = None

        release = PacketOut(packet=message.packet, out_port=out_port)
        if rule is None:
            self._obs_forward_only.inc()
            network.sim.schedule(
                processing + down_link, switch.handle_packet_out, release
            )
            return

        self._obs_installs.inc()
        install_delay = network.latency.flowmod_install_delay(network.normals)
        network.sim.schedule(
            processing + down_link,
            self._install_and_release,
            switch,
            FlowMod(rule=rule, out_port=out_port),
            release,
            install_delay,
        )

    def _install_and_release(
        self,
        switch: "Switch",
        install: FlowMod,
        release: PacketOut,
        install_delay: float,
    ) -> None:
        """Flow-mod lands on ``switch``; the packet-out follows it."""
        switch.handle_flow_mod(install)
        self.network.sim.schedule(
            install_delay, switch.handle_packet_out, release
        )

    def proactive_install_all(self, switch_name: str) -> int:
        """Install every policy rule permanently on one switch.

        Implements the Section VII-B2 defense; returns the number of
        rules installed.  Timeouts are stripped (the defense keeps the
        rules resident), so the entries are never evicted or expired.
        """
        network = self.network
        switch = network.switches[switch_name]
        installed = 0
        for rule in self.policy:
            out_port = network.route_port(switch_name, _rule_probe_dst(rule))
            permanent = replace(rule, idle_timeout=0.0, hard_timeout=0.0)
            switch.preinstall(permanent, out_port)
            installed += 1
        return installed


def _rule_probe_dst(rule: Rule) -> int:
    """A destination address matched by ``rule`` (for port resolution).

    The paper's rules pin the destination exactly (all traffic goes to
    the one server), so the rule's destination value is the address.
    """
    if not rule.dst.is_exact():
        raise ValueError(
            f"rule {rule.name} has a wildcard destination; cannot resolve "
            "a proactive output port"
        )
    return rule.dst.value
