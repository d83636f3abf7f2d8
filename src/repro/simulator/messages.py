"""Packets and OpenFlow-style control messages.

Only the fields the reproduction needs are modelled: a data-plane
:class:`Packet` carrying its flow identifier and bookkeeping timestamps,
and the three control-channel messages of the reactive path --
:class:`PacketIn` (switch -> controller on a table miss),
:class:`FlowMod` (controller -> switch rule installation), and
:class:`PacketOut` (controller -> switch packet release).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from repro.flows.flowid import FlowId
from repro.flows.rules import Rule

_packet_ids = itertools.count(1)

#: Data-plane packet kinds used by the ICMP echo workload.
ECHO_REQUEST = "echo_request"
ECHO_REPLY = "echo_reply"


class Packet:
    """A data-plane packet.

    ``created`` is the send timestamp at the originating host;
    ``spoofed`` marks attacker packets whose source address is forged
    (Section III-A's probe construction).  ``probe_id`` ties a probe
    packet to its measurement at the attacker.

    A plain ``__slots__`` class rather than a dataclass: one packet is
    allocated per background arrival plus one per echo reply, so the
    per-instance dict is measurable across a sweep (and ``slots=True``
    needs a newer dataclass than the 3.9 floor supports).
    """

    __slots__ = ("flow", "kind", "created", "spoofed", "probe_id", "packet_id")

    #: Unhashable, like the mutable dataclass this class replaced.
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        flow: FlowId,
        kind: str = ECHO_REQUEST,
        created: float = 0.0,
        spoofed: bool = False,
        probe_id: Optional[int] = None,
    ) -> None:
        self.flow = flow
        self.kind = kind
        self.created = created
        self.spoofed = spoofed
        self.probe_id = probe_id
        self.packet_id = next(_packet_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packet):
            return NotImplemented
        return (
            self.flow,
            self.kind,
            self.created,
            self.spoofed,
            self.probe_id,
            self.packet_id,
        ) == (
            other.flow,
            other.kind,
            other.created,
            other.spoofed,
            other.probe_id,
            other.packet_id,
        )

    def __repr__(self) -> str:
        return (
            f"Packet(flow={self.flow!r}, kind={self.kind!r}, "
            f"created={self.created!r}, spoofed={self.spoofed!r}, "
            f"probe_id={self.probe_id!r}, packet_id={self.packet_id!r})"
        )

    def make_reply(self, now: float) -> "Packet":
        """The echo reply travelling the reverse flow."""
        return Packet(
            flow=self.flow.reversed(),
            kind=ECHO_REPLY,
            created=now,
            spoofed=False,
            probe_id=self.probe_id,
        )


@dataclass(frozen=True)
class PacketIn:
    """Switch-to-controller notification of a table miss."""

    switch_name: str
    packet: Packet
    in_port: int


@dataclass(frozen=True)
class FlowMod:
    """Controller-to-switch rule installation.

    ``out_port`` resolves the rule's abstract forward action to a port
    on the receiving switch (the controller knows the topology).
    """

    rule: Rule
    out_port: int


@dataclass(frozen=True)
class PacketOut:
    """Controller-to-switch release of a buffered packet."""

    packet: Packet
    out_port: int
