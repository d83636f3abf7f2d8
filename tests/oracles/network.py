"""Oracle: per-event background-traffic delivery.

Production hands a time-ordered arrival schedule to the simulator as one
batched event stream (:meth:`repro.simulator.network.Network.schedule_arrivals`).
This oracle schedules every arrival as its own event through
:meth:`~repro.simulator.network.Network.schedule_flow_arrival`, the
original delivery the stream is pinned to.
"""

from __future__ import annotations

from typing import Iterable

from repro.flows.arrival import Arrival
from repro.simulator.network import Network


def schedule_arrivals(network: Network, arrivals: Iterable[Arrival]) -> None:
    """Schedule one simulator event per arrival."""
    for arrival in arrivals:
        flow = network.universe.flows[arrival.flow_index]
        network.schedule_flow_arrival(flow, arrival.time)
