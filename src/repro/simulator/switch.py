"""The SDN switch datapath.

A switch owns a :class:`~repro.simulator.flowtable.FlowTable` and a set
of numbered ports.  Packet handling follows the OpenFlow pipeline the
paper describes: the highest-priority matching entry's action is
applied --

* ``forward`` -- send out of the entry's port after a lookup delay;
* ``controller`` -- buffer the packet and raise a packet-in (the
  reactive miss path that creates the timing side channel);
* ``flood`` -- the paper's lowest-priority default rule; in this
  reproduction nothing reaches it in normal operation, so it counts and
  drops.

The paper's pre-installed helper rules (ICMP-to-controller on the
reactive switch, per-destination routing rules elsewhere, the default
flood rule) are installed by :class:`~repro.simulator.network.Network`
as permanent entries; permanent entries are never evicted, so the
reactive rules compete only for the ``cache_size`` slots the paper
models (it sets the OVS table size to 9 = 6 + 3 reserved).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.flows.rules import (
    ACTION_CONTROLLER,
    ACTION_FLOOD,
    ACTION_FORWARD,
    Rule,
)
from repro.obs import get_instrumentation
from repro.simulator.flowtable import FlowTable
from repro.simulator.messages import FlowMod, Packet, PacketIn, PacketOut

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simulator.network import Network


class Switch:
    """One datapath: flow table, ports, miss path."""

    def __init__(
        self,
        name: str,
        network: "Network",
        capacity: int,
        reactive: bool,
    ) -> None:
        self.name = name
        self.network = network
        self.table = FlowTable(capacity)
        self.reactive = reactive
        #: packet_id -> (packet, in_port) awaiting a controller verdict.
        self._pending: Dict[int, Packet] = {}
        # Resolved once here (see docs/OBSERVABILITY.md); no-op
        # singletons under the default null backend.
        obs = get_instrumentation().metrics
        self._obs_received = obs.counter("sim.switch.received")
        self._obs_forwarded = obs.counter("sim.switch.forwarded")
        self._obs_packet_ins = obs.counter("sim.switch.packet_ins")
        self._obs_flooded = obs.counter("sim.switch.flooded")
        self._obs_dropped = obs.counter("sim.switch.dropped")

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, in_port: int) -> None:
        """Handle a packet arriving on ``in_port`` at the current time."""
        network = self.network
        now = network.sim.now
        self._obs_received.inc()
        network.defense_observe(self, packet)
        entry = self.table.lookup(packet.flow, now)
        if entry is None or entry.rule.action == ACTION_FLOOD:
            # The paper's default rule floods unmatched traffic; our
            # workloads never rely on it, so account and drop.
            self._obs_flooded.inc()
            return
        if entry.rule.action == ACTION_CONTROLLER:
            self._send_packet_in(packet, in_port)
            return
        if entry.rule.action == ACTION_FORWARD:
            self._forward(packet, entry.out_port, cache_hit=True)
            return
        self._obs_dropped.inc()

    def _forward(
        self, packet: Packet, out_port: int, cache_hit: bool
    ) -> None:
        network = self.network
        delay = network.latency.lookup_delay(network.normals)
        if cache_hit:
            extra = network.defense_forward_delay(self, packet)
            delay += extra
        network.sim.schedule(delay, network.deliver, self, out_port, packet)
        self._obs_forwarded.inc()

    # ------------------------------------------------------------------
    # Miss path
    # ------------------------------------------------------------------
    def _send_packet_in(self, packet: Packet, in_port: int) -> None:
        network = self.network
        self._obs_packet_ins.inc()
        self._pending[packet.packet_id] = packet
        if network.faults is not None and network.faults.drop_packet_in():
            # Injected control-channel loss: the miss notification never
            # reaches the controller.  The packet stays buffered (as on a
            # real switch until the buffer ages out), so the flow is
            # neither installed nor released -- probes for it time out.
            return
        message = PacketIn(switch_name=self.name, packet=packet, in_port=in_port)
        delay = network.latency.control_link_delay(network.normals)
        network.sim.schedule(
            delay, network.controller.handle_packet_in, message
        )

    def handle_flow_mod(self, message: FlowMod) -> None:
        """Install a rule delivered by the controller."""
        network = self.network
        now = network.sim.now
        self.table.install(message.rule, message.out_port, now)

    def handle_packet_out(self, message: PacketOut) -> None:
        """Release a buffered packet toward ``out_port``."""
        packet = self._pending.pop(message.packet.packet_id, None)
        if packet is None:
            # Already released (duplicate packet-out); nothing to do.
            return
        self._forward(packet, message.out_port, cache_hit=False)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def preinstall(self, rule: Rule, out_port: int) -> None:
        """Install a permanent helper rule at time zero (uncounted)."""
        self.table.preinstall(rule, out_port)

    def cached_reactive_rules(self) -> tuple:
        """Names of currently cached non-permanent rules (sorted)."""
        now = self.network.sim.now
        self.table.sweep(now)
        return tuple(
            sorted(
                entry.rule.name
                for entry in self.table.entries
                if entry.evictable
            )
        )
