"""The first-packets delay defense (Section VII-B1).

"Switches can delay the first few packets of each flow, even if the flow
matches an existing rule in the switch, to hide that it did so" (after
Cui et al. [9]).  The defense tracks, per flow identifier at the
reactive switch, how many packets have been seen since the flow was last
quiet; the first ``first_k`` packets of each burst are delayed by a
sample from the same distribution as the controller setup time, making
hit and miss timings indistinguishable to the prober.

The cost the paper notes -- added buffering and delay for legitimate
first packets -- is directly measurable here via
:attr:`DelayDefense.delays_added`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.countermeasures.base import Defense
from repro.flows.flowid import FlowId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.messages import Packet
    from repro.simulator.network import Network
    from repro.simulator.switch import Switch


class DelayDefense(Defense):
    """Delay the first ``first_k`` packets of each flow on hits."""

    name = "delay"

    def __init__(
        self,
        first_k: int = 2,
        delay_mean: float = 3.6e-3,
        delay_std: float = 1.8e-3,
        quiet_reset: float = 1.0,
    ) -> None:
        if first_k < 1:
            raise ValueError("first_k must be >= 1")
        if delay_mean < 0 or delay_std < 0 or quiet_reset <= 0:
            raise ValueError("delays must be non-negative, reset positive")
        self.first_k = first_k
        self.delay_mean = delay_mean
        self.delay_std = delay_std
        self.quiet_reset = quiet_reset
        #: flow -> (packets seen in current burst, last packet time).
        self._seen: Dict[FlowId, Tuple[int, float]] = {}
        #: flow -> {packet identity -> burst position}.  A retransmitted
        #: probe keeps its probe id, so it must keep its burst position:
        #: an in-budget packet is padded on *every* attempt, and a
        #: retransmission never consumes fresh budget.
        self._burst_slots: Dict[FlowId, Dict[Tuple[str, int], int]] = {}
        #: Total artificial delay added (the defense's cost metric).
        self.delays_added = 0.0
        self.packets_delayed = 0
        self._network: "Network" = None  # type: ignore[assignment]
        #: Own stream, spawned off the network's seed tree at attach:
        #: drawing from ``network.rng`` directly would interleave the
        #: defense's samples with the simulator's.  Lint rule SEED102
        #: allows a ``*Defense`` to spawn only in __init__/attach.
        self._rng: Optional[np.random.Generator] = None

    def attach(self, network: "Network") -> None:
        self._network = network
        self._rng = network.rng.spawn(1)[0]

    def _participates(self, switch: "Switch", packet: "Packet") -> bool:
        """Only reactively handled flows at the ingress are defended.

        The side channel exists only for traffic that can trigger rule
        setup; delaying reply/transit traffic carried by permanent rules
        would be pure cost with no leakage to hide.
        """
        return (
            switch.reactive
            and packet.flow.dst in self._network.monitored_dsts
        )

    def observe(self, switch: "Switch", packet: "Packet") -> None:
        # Count every packet of the flow at the reactive switch -- the
        # miss packet that triggers rule setup is the flow's first
        # packet and consumes part of the first_k budget (it is already
        # slow, so it needs no artificial delay).
        if not self._participates(switch, packet):
            return
        now = self._network.sim.now
        count, last = self._seen.get(packet.flow, (0, -float("inf")))
        slots = self._burst_slots.setdefault(packet.flow, {})
        if now - last > self.quiet_reset:
            count = 0  # the flow went quiet; its next packets are "first"
            slots.clear()
        identity = self._packet_identity(packet)
        if identity in slots:
            # A retransmission of a packet already counted this burst:
            # refresh the burst clock, but consume no fresh budget.
            self._seen[packet.flow] = (count, now)
            return
        count += 1
        slots[identity] = count
        self._seen[packet.flow] = (count, now)

    @staticmethod
    def _packet_identity(packet: "Packet") -> Tuple[str, int]:
        """Stable identity across retransmissions of the same probe.

        Probe ids and packet ids are separate counters, so the two
        namespaces are kept apart to avoid accidental slot sharing.
        """
        if packet.probe_id is not None:
            return ("probe", int(packet.probe_id))
        return ("data", int(packet.packet_id))

    def forward_delay(self, switch: "Switch", packet: "Packet") -> float:
        if not self._participates(switch, packet):
            return 0.0
        count, _ = self._seen.get(packet.flow, (1, 0.0))
        slots = self._burst_slots.get(packet.flow, {})
        position = slots.get(self._packet_identity(packet), count)
        if position > self.first_k:
            return 0.0
        assert self._rng is not None, "attach() must run before forwarding"
        delay = float(self._rng.normal(self.delay_mean, self.delay_std))
        delay = max(delay, self.delay_mean * 0.1)
        self.delays_added += delay
        self.packets_delayed += 1
        return delay
