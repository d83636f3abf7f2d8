"""Network assembly: topology, switches, hosts, routing, delivery.

:class:`Network` wires a topology graph into :class:`Switch` instances
connected by latency-modelled links, attaches hosts (the 16 sources and
the attacker on the *ingress* switch, the server on another switch --
the paper's client/server arrangement), pre-installs the helper rules,
and exposes the traffic and probing entry points the experiment harness
drives.

Pre-installed (permanent, never-evicted) rules, mirroring Section VI-A:

* on every switch, a per-destination routing rule for each host
  (``dst = host -> port``): the "proactively installed" plumbing that
  lets replies and transit traffic flow without controller round trips;
* on the *reactive* ingress switch only, the server-destined routing
  rule is omitted and replaced by the ICMP-to-controller rule, so
  monitored flows take the reactive path exactly once, at their ingress
  -- the single switch the paper models;
* a lowest-priority default flood rule (inert in these workloads).

The reactive switch's table capacity is set to ``cache_size`` *plus* the
number of permanent entries, reproducing the paper's "size 9 = 6 + 3
reserved" arrangement (our host plumbing needs more reserved slots, but
reactive rules still compete for exactly ``cache_size``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from repro.flows.flowid import PROTO_ICMP, FlowId, ip_to_str
from repro.flows.rules import (
    ACTION_CONTROLLER,
    ACTION_FLOOD,
    ACTION_FORWARD,
    Match,
    Rule,
    RuleTable,
)
from repro.flows.universe import FlowUniverse
from repro.obs import get_instrumentation, sanitize
from repro.simulator.controller import ReactiveController
from repro.simulator.events import Simulator
from repro.simulator.messages import ECHO_REPLY, ECHO_REQUEST, Packet
from repro.simulator.switch import Switch
from repro.simulator.timing import LatencyModel, NormalBlock
from repro.simulator.topology import stanford_backbone, validate_topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.countermeasures.base import Defense
    from repro.faults import FaultInjector
    from repro.flows.arrival import Arrival

#: RNG seed when no ``rng`` is given, so bare ``Network(...)``
#: constructions are reproducible run to run.  Real experiments thread
#: ``ExperimentParams.seed`` through ``rng``.
DEFAULT_SEED = 0

#: Table slots beyond the permanent entries on a transit (non-reactive)
#: switch; transit tables only hold the permanent plumbing.
TRANSIT_CAPACITY_SLACK = 16
#: The attacker's address: this far above the highest flow address.
ATTACKER_IP_OFFSET = 100

#: Priority of per-destination routing rules (below reactive rules).
ROUTE_PRIORITY = 50
#: Priority of the ICMP-to-controller helper rule.
TO_CONTROLLER_PRIORITY = 10
#: Priority of the default flood rule.
FLOOD_PRIORITY = 1


@dataclass(frozen=True)
class HostRecord:
    """One attached host: name, address, and attachment point."""

    name: str
    ip: int
    switch_name: str
    port: int

    def __deepcopy__(self, memo: Dict[int, object]) -> "HostRecord":
        return self  # immutable: forks share it


class Network:
    """A simulated SDN network hosting the reconnaissance scenario."""

    def __init__(
        self,
        rules: Sequence[Rule],
        universe: FlowUniverse,
        cache_size: int = 6,
        latency: Optional[LatencyModel] = None,
        topology: Optional[nx.Graph] = None,
        rng: Optional[np.random.Generator] = None,
        defense: Optional["Defense"] = None,
    ) -> None:
        self.cache_size = cache_size
        self.sim = Simulator()
        self.latency = latency or LatencyModel.calibrated()
        # Reproducible by default: an explicit generator wins, then
        # DEFAULT_SEED -- never OS entropy.
        self.reseed(
            rng if rng is not None else np.random.default_rng(DEFAULT_SEED)
        )
        self.topology = topology if topology is not None else stanford_backbone()
        validate_topology(self.topology)
        self.universe = universe
        self.policy_rules = RuleTable(rules)
        self.defense: Optional["Defense"] = None
        # Optional fault injector (docs/FAULTS.md), set by :meth:`attach`.
        # ``None`` (and an all-zero plan) leaves every code path
        # byte-identical to the fault-free simulator -- the injector owns
        # its own RNG and is only *consulted* at the narrow injection
        # points.
        self.faults: Optional["FaultInjector"] = None
        self.proactive_defense_active = False

        # The Stanford backbone's client and server zones; any other
        # topology uses its first and last switch by name.
        nodes = sorted(self.topology.nodes)
        self.ingress_name = "boza" if "boza" in self.topology else nodes[0]
        self.server_switch_name = (
            "yoza" if "yoza" in self.topology else nodes[-1]
        )

        self._build_hosts()
        self._build_ports()
        self._build_routing()
        self._build_switches()
        self.controller = ReactiveController(self, self.policy_rules)
        self._preinstall_rules()

        #: probe_id -> observation time (reply seen by the attacker).
        self._probe_observations: Dict[int, float] = {}
        metrics = get_instrumentation().metrics
        self._obs_host_sends = metrics.counter("sim.network.host_sends")
        self._obs_replies = metrics.counter("sim.network.replies")
        self.attach(defense)

    def fork(self) -> "Network":
        """An independent copy of this network in its current state.

        A ``copy.deepcopy`` in which the structures fixed at build time
        -- topology graph, policy table, port map, routing, host records
        -- are shared through the memo.  Everything the simulation
        mutates is copied: the clock and pending events (scheduled as
        bound methods, so they act on the copy), flow tables, buffered
        packets, probe observations, the ``rng`` state with its latency
        block and any attached defense or fault injector.  Running the fork therefore leaves
        this network untouched and continues exactly as this network
        would have.  Frozen value types (flows, rules, the latency
        model) and metric instruments return themselves from
        ``__deepcopy__``: a fork counts into the same registry.
        """
        shared = (
            self.topology,
            self.policy_rules,
            self._ports,
            self._port_to_neighbor,
            self._next_hop,
            self._host_plan,
            self.hosts,
            self.host_by_ip,
            self.monitored_dsts,
        )
        memo: Dict[int, object] = {id(obj): obj for obj in shared}
        return copy.deepcopy(self, memo)

    def reseed(self, rng: np.random.Generator) -> None:
        """Draw every latency from ``rng`` from now on.

        Only a network that has not run may be reseeded.  Building draws
        nothing, so a reseeded fork of an unrun template draws exactly
        what a fresh build with ``rng`` would (see
        :func:`repro.experiments.trials._window_world`).
        """
        if self.sim.events_run or self.sim.pending:
            raise ValueError("only a network that has not run can be reseeded")
        self.rng = rng
        #: Latency normals, drawn from ``rng`` in blocks; nothing else
        #: may draw from ``rng`` (docs/SIMULATOR.md).
        self.normals = NormalBlock(rng)
        if sanitize.is_active():
            sanitize.guard_rng("network.rng", rng)

    def attach(
        self,
        defense: Optional["Defense"] = None,
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        """Attach a defense and a fault injector, once, before running.

        ``Network(defense=...)`` ends here, and so does a
        trial's reseeded template fork: either way the defense's
        ``attach`` hook runs once, after the permanent entries are in.
        """
        if self.defense is not None or self.faults is not None:
            raise ValueError("a defense or fault injector is already attached")
        self.faults = faults
        if defense is None:
            return
        self.defense = defense
        # Resolved once here, not per packet: the hooks sit on the
        # forwarding hot path.  Without a defense the hooks never
        # touch instrumentation at all.
        metrics = get_instrumentation().metrics
        self._obs_defense_observed = metrics.counter("defense.packets_observed")
        self._obs_defense_delayed = metrics.counter("defense.packets_delayed")
        self._obs_defense_delay = metrics.histogram(
            "defense.added_delay_seconds"
        )
        defense.attach(self)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_hosts(self) -> None:
        src_ips = sorted({flow.src for flow in self.universe.flows})
        dst_ips = sorted(
            {flow.dst for flow in self.universe.flows} - set(src_ips)
        )
        self.attacker_ip = max(src_ips + dst_ips) + ATTACKER_IP_OFFSET
        self.hosts: Dict[str, HostRecord] = {}
        self.host_by_ip: Dict[int, HostRecord] = {}
        self._host_plan: List[Tuple[str, int, str]] = []
        for index, ip in enumerate(src_ips):
            self._host_plan.append((f"h{index}", ip, self.ingress_name))
        for index, ip in enumerate(dst_ips):
            self._host_plan.append(
                (f"server{index}", ip, self.server_switch_name)
            )
        self._host_plan.append(("attacker", self.attacker_ip, self.ingress_name))
        #: Destination addresses that must take the reactive path.
        self.monitored_dsts = frozenset(
            flow.dst for flow in self.universe.flows
        )

    def _build_ports(self) -> None:
        """Assign port numbers: neighbours first, then hosts."""
        self._ports: Dict[str, Dict[int, Tuple[str, str]]] = {}
        self._port_to_neighbor: Dict[Tuple[str, str], int] = {}
        for switch in self.topology.nodes:
            port_map: Dict[int, Tuple[str, str]] = {}
            port_no = 1
            for neighbor in sorted(self.topology.neighbors(switch)):
                port_map[port_no] = ("switch", neighbor)
                self._port_to_neighbor[(switch, neighbor)] = port_no
                port_no += 1
            self._ports[switch] = port_map
        for name, ip, switch in self._host_plan:
            port_map = self._ports[switch]
            port_no = max(port_map.keys(), default=0) + 1
            port_map[port_no] = ("host", name)
            record = HostRecord(name=name, ip=ip, switch_name=switch, port=port_no)
            self.hosts[name] = record
            self.host_by_ip[ip] = record

    def _build_routing(self) -> None:
        paths = dict(nx.all_pairs_shortest_path(self.topology))
        self._next_hop: Dict[str, Dict[str, str]] = {}
        for source, targets in paths.items():
            hops: Dict[str, str] = {}
            for target, path in targets.items():
                if len(path) >= 2:
                    hops[target] = path[1]
            self._next_hop[source] = hops

    def _build_switches(self) -> None:
        self.switches: Dict[str, Switch] = {}
        for name in self.topology.nodes:
            # Provisional capacity; finalised after preinstallation.
            self.switches[name] = Switch(
                name, self, capacity=10_000, reactive=name == self.ingress_name
            )

    def _preinstall_rules(self) -> None:
        for switch_name, switch in self.switches.items():
            reactive = switch.reactive
            for host in self.hosts.values():
                if reactive and host.ip in self.monitored_dsts:
                    continue  # force the reactive path at the ingress
                rule = Rule(
                    name=f"route_{switch_name}_{ip_to_str(host.ip)}",
                    dst=Match.exact(host.ip),
                    priority=ROUTE_PRIORITY,
                    action=ACTION_FORWARD,
                )
                switch.preinstall(rule, self.route_port(switch_name, host.ip))
            if reactive:
                # The paper pre-installs an "unmatched ICMP to the
                # controller" rule; we generalise to one to-controller
                # rule per monitored destination so non-ICMP universes
                # take the same reactive path.
                for dst in sorted(self.monitored_dsts):
                    switch.preinstall(
                        Rule(
                            name=f"to_ctrl_{switch_name}_{ip_to_str(dst)}",
                            dst=Match.exact(dst),
                            priority=TO_CONTROLLER_PRIORITY,
                            action=ACTION_CONTROLLER,
                        ),
                        out_port=0,
                    )
            switch.preinstall(
                Rule(
                    name=f"flood_{switch_name}",
                    priority=FLOOD_PRIORITY,
                    action=ACTION_FLOOD,
                ),
                out_port=0,
            )
            # Reactive rules compete for exactly cache_size slots on the
            # reactive switch; transit tables just need room for the
            # permanent plumbing.
            slack = self.cache_size if reactive else TRANSIT_CAPACITY_SLACK
            switch.table.capacity = len(switch.table) + slack

    # ------------------------------------------------------------------
    # Routing and delivery
    # ------------------------------------------------------------------
    def route_port(self, switch_name: str, dst_ip: int) -> int:
        """Output port on ``switch_name`` toward the host owning ``dst_ip``."""
        host = self.host_by_ip.get(dst_ip)
        if host is None:
            raise KeyError(f"no host with address {ip_to_str(dst_ip)}")
        if host.switch_name == switch_name:
            return host.port
        next_switch = self._next_hop[switch_name][host.switch_name]
        return self._port_to_neighbor[(switch_name, next_switch)]

    def deliver(self, switch: Switch, out_port: int, packet: Packet) -> None:
        """Move a packet out of ``switch`` via ``out_port`` (link delay)."""
        endpoint = self._ports[switch.name].get(out_port)
        if endpoint is None:
            raise KeyError(f"switch {switch.name} has no port {out_port}")
        kind, name = endpoint
        delay = self.latency.link_delay(self.normals)
        if kind == "switch":
            neighbor = self.switches[name]
            in_port = self._port_to_neighbor[(name, switch.name)]
            self.sim.schedule(delay, neighbor.receive, packet, in_port)
        else:
            self.sim.schedule(
                delay, self._host_receive, self.hosts[name], packet
            )

    def _host_receive(self, host: HostRecord, packet: Packet) -> None:
        """Host-side packet handling: echo replies and probe observation."""
        if packet.kind == ECHO_REQUEST and packet.flow.dst == host.ip:
            reply = packet.make_reply(self.sim.now)
            delay = self.latency.host_reply_delay(self.normals)
            self.sim.schedule(delay, self.send_from_host, host, reply)
            return
        if packet.kind == ECHO_REPLY:
            self._obs_replies.inc()
            if packet.probe_id is not None:
                if self.faults is not None and self.faults.drop_probe_reply():
                    # Injected capture loss: the reply arrives but the
                    # attacker's sniffer misses it -- the probe stays
                    # unobserved and times out.
                    return
                # The attacker shares the victim's segment (Section III):
                # seeing the reply reach the spoofed source host closes
                # the measurement.
                self._probe_observations.setdefault(
                    packet.probe_id, self.sim.now
                )

    def send_from_host(self, host: HostRecord, packet: Packet) -> None:
        """Inject a packet from ``host`` into its access switch."""
        switch = self.switches[host.switch_name]
        delay = self.latency.link_delay(self.normals)
        self._obs_host_sends.inc()
        self.sim.schedule(delay, switch.receive, packet, host.port)

    # ------------------------------------------------------------------
    # Workload entry points
    # ------------------------------------------------------------------
    def schedule_flow_arrival(self, flow: FlowId, time: float) -> None:
        """Schedule one background flow arrival (an echo request)."""
        host = self.host_by_ip.get(flow.src)
        if host is None:
            raise KeyError(f"no host for source {ip_to_str(flow.src)}")
        self.sim.schedule_at(time, self.send_flow_packet, host, flow)

    def send_flow_packet(self, host: HostRecord, flow: FlowId) -> None:
        """Send one background echo request of ``flow`` from ``host`` now."""
        packet = Packet(flow=flow, kind=ECHO_REQUEST, created=self.sim.now)
        self.send_from_host(host, packet)

    def schedule_arrivals(self, arrivals: Iterable["Arrival"]) -> None:
        """Schedule a whole :func:`repro.flows.arrival` schedule.

        A time-ordered schedule is handed to the simulator as one event
        *stream* instead of one heap entry per packet: the stream
        reserves the same sequence numbers one
        :meth:`schedule_flow_arrival` call per arrival would allocate
        and is merged against the heap by ``(time, seq)``, so event
        order -- and with it every latency RNG draw and fault-injection
        consultation -- is bit-identical while skipping the per-packet
        heap churn and per-event allocation.  Unsorted schedules (never
        produced by :func:`repro.flows.arrival.sample_schedule`) fall
        back to that per-event loop.
        """
        batch = list(arrivals)
        times = [arrival.time for arrival in batch]
        ordered = all(a <= b for a, b in zip(times, times[1:]))
        if not ordered or (times and times[0] < self.sim.now):
            for arrival in batch:
                flow = self.universe.flows[arrival.flow_index]
                self.schedule_flow_arrival(flow, arrival.time)
            return
        flows = self.universe.flows
        host_by_ip = self.host_by_ip
        hosts = []
        packet_flows = []
        for arrival in batch:
            flow = flows[arrival.flow_index]
            host = host_by_ip.get(flow.src)
            if host is None:
                raise KeyError(f"no host for source {ip_to_str(flow.src)}")
            hosts.append(host)
            packet_flows.append(flow)
        batch_events = _ArrivalBatch(self, tuple(hosts), tuple(packet_flows))
        self.sim.schedule_stream(times, batch_events.run)

    def send_probe(self, flow: FlowId, probe_id: int) -> None:
        """Inject an attacker probe (spoofed when needed) right now."""
        attacker = self.hosts["attacker"]
        packet = Packet(
            flow=flow,
            kind=ECHO_REQUEST,
            created=self.sim.now,
            spoofed=flow.src != attacker.ip,
            probe_id=probe_id,
        )
        self.send_from_host(attacker, packet)

    def probe_observation(self, probe_id: int) -> Optional[float]:
        """Reply-observation time for a probe, if it has arrived."""
        return self._probe_observations.get(probe_id)

    # ------------------------------------------------------------------
    # Defense hooks
    # ------------------------------------------------------------------
    def defense_observe(self, switch: Switch, packet: Packet) -> None:
        """Let an attached defense see every packet entering a switch."""
        if self.defense is not None:
            self.defense.observe(switch, packet)
            self._obs_defense_observed.inc()

    def defense_forward_delay(self, switch: Switch, packet: Packet) -> float:
        """Extra hit-path delay contributed by an attached defense."""
        if self.defense is None:
            return 0.0
        extra = self.defense.forward_delay(switch, packet)
        if extra > 0.0:
            self._obs_defense_delayed.inc()
            self._obs_defense_delay.observe(extra)
        return extra

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ingress_switch(self) -> Switch:
        """The reactive switch the monitored hosts attach to."""
        return self.switches[self.ingress_name]

    def cached_reactive_rules(self) -> Tuple[str, ...]:
        """Reactive rules currently cached at the ingress switch."""
        return self.ingress_switch.cached_reactive_rules()


class _ArrivalBatch:
    """The hosts and flows of one scheduled arrival stream.

    The stream's callback is the bound :meth:`run`, so a network fork
    taken while the stream is still in flight copies the batch with it.
    """

    __slots__ = ("network", "hosts", "flows")

    def __init__(
        self,
        network: Network,
        hosts: Tuple[HostRecord, ...],
        flows: Tuple[FlowId, ...],
    ) -> None:
        self.network = network
        self.hosts = hosts
        self.flows = flows

    def run(self, index: int) -> None:
        """Send the stream's ``index``-th arrival."""
        self.network.send_flow_packet(self.hosts[index], self.flows[index])
