"""Discrete-event SDN substrate (the Mininet / OVS / Ryu stand-in).

The paper evaluates on a Mininet emulation of Stanford's backbone with
Open vSwitch datapaths and a Ryu reactive controller.  This subpackage
rebuilds that stack as a continuous-time discrete-event simulation:

* :mod:`repro.simulator.events` -- event queue and simulation clock.
* :mod:`repro.simulator.messages` -- packets and OpenFlow-ish control
  messages (packet-in, flow-mod, packet-out).
* :mod:`repro.simulator.flowtable` -- an OVS-like flow table: priority
  matching, idle/hard timeouts, capacity with shortest-remaining-time
  eviction.
* :mod:`repro.simulator.switch` -- the datapath: lookup, miss path,
  pre-installed helper rules.
* :mod:`repro.simulator.controller` -- the reactive controller.
* :mod:`repro.simulator.topology` -- the Stanford backbone graph.
* :mod:`repro.simulator.network` -- wiring, routing, hosts, delivery.
* :mod:`repro.simulator.timing` -- the latency model calibrated to the
  paper's measured hit/miss distributions.
* :mod:`repro.simulator.probing` -- the attacker's vantage point:
  inject a (possibly spoofed) probe, time the reply, threshold.
"""

from repro.simulator.events import Simulator
from repro.simulator.flowtable import FlowTable, TableEntry
from repro.simulator.messages import Packet, PacketIn, FlowMod, PacketOut
from repro.simulator.switch import Switch
from repro.simulator.controller import ReactiveController
from repro.simulator.timing import LatencyModel
from repro.simulator.topology import stanford_backbone
from repro.simulator.network import Network
from repro.simulator.probing import Prober, ProbeResult

__all__ = [
    "Simulator",
    "FlowTable",
    "TableEntry",
    "Packet",
    "PacketIn",
    "FlowMod",
    "PacketOut",
    "Switch",
    "ReactiveController",
    "LatencyModel",
    "stanford_backbone",
    "Network",
    "Prober",
    "ProbeResult",
]
