"""Trial runner: one attack attempt against freshly generated traffic.

A *trial* regenerates the background traffic (the paper re-randomises
"the network packets every time"), lets it run for the detection window,
then lets each attacker probe and decide.  Probes perturb the switch
cache, so the window is built once and each distinct probe plan probes
its own fork of it; attackers with equal plans share one probe phase.
The per-attacker replay loops this replaced are test oracles
(``tests/oracles/trials.py``).  Two fidelity levels share these
semantics and differ only in the world :func:`_window_world` builds:

* ``mode="network"`` -- the packet-level discrete-event simulation (the
  Mininet stand-in): probes are ICMP echoes timed against the 1 ms
  threshold by a :class:`~repro.simulator.probing.Prober`.
* ``mode="table"`` -- the arrival schedule replayed straight through an
  OVS-style :class:`~repro.simulator.flowtable.FlowTable` with
  idealised timing: probe outcomes read the table.  Orders of magnitude
  faster; used for large sweeps and model-agreement tests.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence,
    Tuple, Union,
)

import numpy as np

from repro.core.attacker import Attacker
from repro.faults import FaultInjector, FaultPlan
from repro.flows.arrival import Arrival, occurred_in_window, sample_schedule
from repro.flows.config import NetworkConfiguration
from repro.flows.flowid import FlowId
from repro.flows.rules import RuleTable
from repro.memo import BoundedMemo
from repro.obs import Instrumentation, get_instrumentation
from repro.simulator.flowtable import FlowTable
from repro.simulator.network import Network
from repro.simulator.probing import Prober

if TYPE_CHECKING:
    from repro.core.adaptive import AdaptiveModelAttacker
    from repro.countermeasures.base import Defense

#: Zero-argument factory producing a fresh defense, called once per
#: network-mode trial; each probing fork carries its own copy of it.
DefenseFactory = Callable[[], "Defense"]

#: Seconds between consecutive probes on one table world (the network
#: prober's send gap).
PROBE_GAP = Prober.GAP

#: Template networks kept per process.  Trials run one configuration
#: after another, so a handful covers any interleaving the harness and
#: the service produce.
MAX_TEMPLATES = 8

#: ``id(config)`` -> ``(config, instrumentation, template)``.  The entry
#: holds the configuration, so its id cannot be reused while the entry
#: lives.
_TEMPLATES: BoundedMemo[
    int, Tuple[NetworkConfiguration, Instrumentation, Network]
] = BoundedMemo(MAX_TEMPLATES)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial: ground truth and per-attacker verdicts.

    ``outcomes`` entries may contain ``None`` bits: probes that went
    unanswered under fault injection (docs/FAULTS.md).
    """

    ground_truth: int
    decisions: Dict[str, int]
    outcomes: Dict[str, Tuple[Optional[int], ...]]

    def correct(self, attacker_name: str) -> bool:
        """Whether the named attacker judged the trial correctly."""
        return self.decisions[attacker_name] == self.ground_truth


def _trial_schedule(
    config: NetworkConfiguration, seed: int
) -> List[Arrival]:
    rng = np.random.default_rng(seed)
    return sample_schedule(
        config.universe, horizon=config.window_seconds, rng=rng
    )


def _result(
    config: NetworkConfiguration,
    schedule: Sequence[Arrival],
    decisions: Dict[str, int],
    outcomes: Dict[str, Tuple[Optional[int], ...]],
) -> TrialResult:
    truth = occurred_in_window(
        schedule, config.target_flow, 0.0, config.window_seconds
    )
    return TrialResult(int(truth), decisions, outcomes)


def _trial_injector(
    fault_plan: Optional[FaultPlan], seed: int
) -> Optional[FaultInjector]:
    """A fresh injector for one trial, or ``None`` with faults off.

    Seeded from ``(plan.seed, trial seed)``: each trial replays exactly,
    and trials draw independent faults (one plan-seeded stream per
    trial would make a reply-loss rate below its first draw never fire).
    """
    if fault_plan is None:
        return None
    return FaultInjector(
        fault_plan, rng=np.random.default_rng([fault_plan.seed, seed])
    )


class _TableWorld:
    """Minimal reactive-switch semantics over a bare flow table.

    ``faults`` maps the loss kinds onto table semantics: packet-in loss
    strands the miss (no install, no reply), flow-mod loss skips the
    install but still replies (an observed miss), probe-reply loss
    leaves the probe unobserved.  Controller jitter/outage faults are
    no-ops here -- table mode has idealised timing, so there is no
    latency for them to perturb.  Probes run on the world's own clock:
    the first at the end of the detection window, each later one
    :data:`PROBE_GAP` after the previous.
    """

    def __init__(
        self,
        config: NetworkConfiguration,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.policy = RuleTable(config.concrete_rules)
        self.table = FlowTable(config.cache_size)
        self.faults = faults
        self._probes_sent = 0
        metrics = get_instrumentation().metrics
        self._retry_counter = metrics.counter("attacker.probe.retries")
        self._unobserved_counter = metrics.counter("attacker.probe.unobserved")

    def fork(self) -> "_TableWorld":
        """An independent copy: own flow table, injector and probe clock."""
        world = copy.copy(self)
        world.table = copy.deepcopy(self.table)
        world.faults = copy.deepcopy(self.faults)
        return world

    def _process(self, flow: FlowId, time: float) -> Tuple[bool, bool]:
        """One packet through the table: ``(cache_hit, reply_returns)``."""
        entry = self.table.lookup(flow, time)
        if entry is not None:
            return True, True
        faults = self.faults
        if faults is not None and faults.drop_packet_in():
            # The miss notification is lost: no install, no packet-out.
            return False, False
        rule = self.policy.highest_covering(flow)
        if rule is not None and not (
            faults is not None and faults.drop_flow_mod()
        ):
            self.table.install(rule, out_port=0, now=time)
        return False, True

    def arrival(self, flow_index: int, time: float) -> bool:
        """Process one flow arrival; returns True on a cache hit."""
        hit, _ = self._process(self.config.universe.flows[flow_index], time)
        return hit

    def probe(self, flow: FlowId, retries: int = 0) -> Optional[int]:
        """Probe semantics: outcome bit plus the install perturbation.

        Every attempt goes out at the probe's clock time.  Returns
        ``None`` when every attempt went unanswered (only possible
        under fault injection).
        """
        time = self.config.window_seconds + self._probes_sent * PROBE_GAP
        self._probes_sent += 1
        faults = self.faults
        for attempt in range(int(retries) + 1):
            if attempt > 0:
                self._retry_counter.inc()
            hit, replied = self._process(flow, time)
            if replied and not (
                faults is not None and faults.drop_probe_reply()
            ):
                return int(hit)
        self._unobserved_counter.inc()
        return None


class _TableReply(NamedTuple):
    outcome: Optional[int]


class _TableProber(NamedTuple):
    """The :class:`~repro.simulator.probing.Prober` surface of a table world."""

    world: _TableWorld
    retries: int = 0

    def outcomes(self, flows: Sequence[FlowId]) -> List[Optional[int]]:
        return [self.world.probe(flow, self.retries) for flow in flows]

    def measure(self, flow: FlowId) -> _TableReply:
        return _TableReply(self.world.probe(flow, self.retries))


_World = Union[Network, _TableWorld]


class _Window(NamedTuple):
    """A post-window world and the prober type that probes it."""

    world: _World
    prober: Callable[..., Union[Prober, _TableProber]]


def _check_mode(
    mode: str, defense_factory: Optional[DefenseFactory] = None
) -> None:
    if mode not in ("network", "table"):
        raise ValueError(f"unknown trial mode: {mode!r}")
    if mode == "table" and defense_factory is not None:
        raise ValueError("defenses require network-mode trials")


def _network_template(config: NetworkConfiguration) -> Network:
    """The configuration's network as built: no defense, no injector, unrun.

    Built once per configuration and kept in
    :data:`_TEMPLATES`.  A template's instruments are bound when it is
    built, so one built under another instrumentation backend (a pool
    worker's chunk installs a fresh one) is rebuilt rather than counting
    into that backend.
    """
    obs = get_instrumentation()
    key = id(config)
    entry = _TEMPLATES.get(key)
    if entry is None or entry[1] is not obs:
        template = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
        )
        entry = (config, obs, template)
        _TEMPLATES[key] = entry
    return entry[2]


def _window_world(
    config: NetworkConfiguration,
    schedule: Sequence[Arrival],
    seed: int,
    mode: str,
    defense: Optional["Defense"] = None,
    faults: Optional[FaultInjector] = None,
) -> _Window:
    """The trial's world at the end of the detection window.

    The one place the fidelity level matters: table mode replays the
    schedule through a :class:`_TableWorld` (no defense); network mode
    forks the configuration's template network, reseeds the fork with
    ``default_rng(seed + 1)``, attaches the trial's defense and
    injector, and runs it.  Building draws nothing from the network's
    generator, so the fork equals a fresh
    ``Network(..., rng=default_rng(seed + 1))`` given the same
    ``attach(defense, faults)``.
    """
    if mode == "table":
        world = _TableWorld(config, faults=faults)
        for arrival in schedule:
            world.arrival(arrival.flow_index, arrival.time)
        return _Window(world, _TableProber)
    network = _network_template(config).fork()
    network.reseed(np.random.default_rng(seed + 1))
    network.attach(defense, faults)
    network.schedule_arrivals(schedule)
    network.sim.run_until(config.window_seconds)
    return _Window(network, Prober)


def _plan_lineup(
    attackers: Sequence[Attacker],
) -> List[Tuple[Attacker, Tuple[int, ...]]]:
    """Every attacker with its probe plan, planned before any probing."""
    return [(attacker, tuple(attacker.plan())) for attacker in attackers]


def _probe_lineup(
    window: Optional[_Window],
    config: NetworkConfiguration,
    lineup: Sequence[Tuple[Attacker, Tuple[int, ...]]],
    probe_retries: int = 0,
) -> Tuple[Dict[str, int], Dict[str, Tuple[Optional[int], ...]]]:
    """Probe each distinct plan on its own copy of the world; decide.

    ``window`` holds the post-window world (``None`` only when every
    plan is empty).  The first distinct plan probes it directly; every
    other one probes a fork taken before any probing, so each plan
    meets the same post-window state.  Attackers with equal plans share
    the bits.  Decisions are made in lineup order, after all probing.
    """
    plans = list(dict.fromkeys(probes for _, probes in lineup if probes))
    bits: Dict[Tuple[int, ...], Tuple[Optional[int], ...]] = {(): ()}
    if plans:
        assert window is not None, "non-empty plans need a world"
        base = window.world
        worlds = [base] + [base.fork() for _ in plans[1:]]
        flows = config.universe.flows
        for probes, world in zip(plans, worlds):
            prober = window.prober(world, retries=probe_retries)
            bits[probes] = tuple(prober.outcomes([flows[f] for f in probes]))
    decisions: Dict[str, int] = {}
    outcomes: Dict[str, Tuple[Optional[int], ...]] = {}
    for attacker, probes in lineup:
        decisions[attacker.name] = attacker.decide(bits[probes])
        outcomes[attacker.name] = bits[probes]
    return decisions, outcomes


def run_adaptive_trial(
    config: NetworkConfiguration,
    adaptive_attacker: "AdaptiveModelAttacker",
    seed: int,
    mode: str = "table",
) -> TrialResult:
    """One trial driving an adaptive attacker.

    The adaptive attacker interleaves probe selection and observation
    (:class:`repro.core.adaptive.AdaptiveModelAttacker`) on the world
    at the end of the detection window.
    """
    _check_mode(mode)
    schedule = _trial_schedule(config, seed)
    session = adaptive_attacker.start_session()
    window = _window_world(config, schedule, seed, mode)
    prober = window.prober(window.world)
    while (flow := session.next_probe()) is not None:
        session.observe(prober.measure(config.universe.flows[flow]).outcome)
    name = adaptive_attacker.name
    return _result(
        config,
        schedule,
        {name: session.decide()},
        {name: tuple(bit for _, bit in session.history)},
    )


def run_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    *,
    mode: str = "network",
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """One trial at the given fidelity level (``"network"`` or ``"table"``).

    Every attacker plans first.  If any plan probes, the window is
    built once and each distinct plan probes its own fork of it (see
    :func:`_probe_lineup`); the result equals giving every attacker an
    identically seeded replica.  ``defense_factory`` (network mode
    only) is called once per trial; ``fault_plan`` attaches one
    injector seeded from ``(plan.seed, seed)``.  Each fork carries its
    own copy of both.
    """
    _check_mode(mode, defense_factory)
    schedule = _trial_schedule(config, seed)
    lineup = _plan_lineup(attackers)
    window = None
    if any(probes for _, probes in lineup):
        window = _window_world(
            config,
            schedule,
            seed,
            mode,
            defense=defense_factory() if defense_factory is not None else None,
            faults=_trial_injector(fault_plan, seed),
        )
    decisions, outcomes = _probe_lineup(window, config, lineup, probe_retries)
    return _result(config, schedule, decisions, outcomes)
