"""Flow identifiers.

The paper (Section IV) identifies a flow by its IP header 5-tuple: source
and destination addresses and ports, plus the transport protocol.  The
evaluation (Section VI-A) then distinguishes flows by source address only
(16 hosts, one server, ICMP echo), but the library keeps the general
5-tuple form so that rules can match on any combination of fields.

IPv4 addresses are carried as plain ``int`` (host byte order) for cheap
mask arithmetic; :func:`ip_to_str` / :func:`str_to_ip` convert to and from
dotted-quad notation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Conventional IANA protocol numbers used throughout the library.
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

_PROTO_NAMES = {PROTO_ICMP: "icmp", PROTO_TCP: "tcp", PROTO_UDP: "udp"}


def str_to_ip(dotted: str) -> int:
    """Parse a dotted-quad IPv4 address into an integer.

    >>> str_to_ip("10.0.1.5")
    167772421
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"not a dotted-quad IPv4 address: {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"octet out of range in {dotted!r}")
        value = (value << 8) | octet
    return value


def ip_to_str(value: int) -> str:
    """Render an integer IPv4 address as a dotted quad.

    >>> ip_to_str(167772421)
    '10.0.1.5'
    """
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 address out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class FlowId:
    """An immutable IP 5-tuple identifying a flow.

    Ports are 0 for protocols without ports (e.g. ICMP); this matches how
    OpenFlow match fields treat absent L4 fields.
    """

    src: int
    dst: int
    proto: int = PROTO_ICMP
    sport: int = 0
    dport: int = 0

    def __post_init__(self) -> None:
        for field_name in ("src", "dst"):
            value = getattr(self, field_name)
            if not 0 <= value <= 0xFFFFFFFF:
                raise ValueError(f"{field_name} out of IPv4 range: {value}")
        if not 0 <= self.proto <= 255:
            raise ValueError(f"proto out of range: {self.proto}")
        for field_name in ("sport", "dport"):
            value = getattr(self, field_name)
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"{field_name} out of range: {value}")

    def __deepcopy__(self, memo: Dict[int, object]) -> "FlowId":
        return self  # immutable: network forks share it

    def reversed(self) -> "FlowId":
        """The reverse flow (responses travelling back to the source)."""
        return FlowId(self.dst, self.src, self.proto, self.dport, self.sport)

    def describe(self) -> str:
        """Human-readable one-line rendering used in logs and reports."""
        proto = _PROTO_NAMES.get(self.proto, str(self.proto))
        if self.sport or self.dport:
            return (
                f"{ip_to_str(self.src)}:{self.sport} -> "
                f"{ip_to_str(self.dst)}:{self.dport} ({proto})"
            )
        return f"{ip_to_str(self.src)} -> {ip_to_str(self.dst)} ({proto})"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.describe()
