"""Trial runners: one attack attempt against freshly generated traffic.

A *trial* regenerates the background traffic (the paper re-randomises
"the network packets every time"), lets it run for the detection window,
then lets each attacker probe and decide.  Because probes perturb the
switch cache, attackers cannot share one network instance; instead every
attacker gets an identically seeded replica (same traffic schedule, same
latency noise stream), so they face exactly the same world and differ
only in their own actions.

Two fidelity levels share the same trial semantics:

* :func:`run_network_trial` -- the full packet-level discrete-event
  simulation (the Mininet stand-in): probes are real ICMP echoes timed
  against the 1 ms threshold.
* :func:`run_table_trial` -- a fast replay of the arrival schedule
  straight through an OVS-style :class:`~repro.simulator.flowtable.
  FlowTable` with idealised timing: probe outcomes read the table
  directly.  Orders of magnitude faster; used for large sweeps and
  model-agreement tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.attacker import Attacker
from repro.deprecation import keyword_only
from repro.faults import FaultInjector, FaultPlan
from repro.flows.arrival import Arrival, occurred_in_window, sample_schedule
from repro.flows.config import NetworkConfiguration
from repro.flows.rules import RuleTable
from repro.obs import get_instrumentation
from repro.simulator.flowtable import FlowTable
from repro.simulator.network import Network
from repro.simulator.probing import Prober
from repro.simulator.timing import LatencyModel

if TYPE_CHECKING:
    from repro.core.adaptive import AdaptiveModelAttacker
    from repro.countermeasures.base import Defense

#: Zero-argument factory producing a fresh defense per attacker replica.
DefenseFactory = Callable[[], "Defense"]


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


def _trial_injector(
    fault_plan: Optional[FaultPlan], seed: int
) -> Optional[FaultInjector]:
    """A fresh injector for one trial, or ``None`` with faults off.

    The fault stream is seeded from ``(plan.seed, trial seed)`` so that
    faults differ across a harness's trials while any single trial
    replays exactly.  Seeding from the plan alone would hand every
    trial the same stream -- with one probe per trial, a reply-loss
    rate below the stream's first draw would then *never* fire.
    """
    if fault_plan is None:
        return None
    return FaultInjector(
        fault_plan, rng=np.random.default_rng([fault_plan.seed, seed])
    )


def run_network_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    latency: Optional[LatencyModel] = None,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """One packet-level trial.

    ``defense_factory``, when given, is called once per attacker replica
    to produce a fresh defense object attached to that network (defenses
    carry per-network state).  ``fault_plan``, when given, attaches a
    fresh :class:`~repro.faults.FaultInjector` to each replica, seeded
    from ``(plan.seed, trial seed)``: every attacker in a trial faces
    the same fault stream, a given trial replays exactly, and different
    trials draw independent faults (a plan-seed-only injector would
    repeat one identical fault pattern in every trial).
    """
    schedule = _trial_schedule(config, seed)
    truth = int(
        occurred_in_window(
            schedule, config.target_flow, 0.0, config.window_seconds
        )
    )
    decisions: Dict[str, int] = {}
    outcomes: Dict[str, Tuple[Optional[int], ...]] = {}
    for attacker in attackers:
        probes = attacker.plan()
        if not probes:
            decisions[attacker.name] = attacker.decide(())
            outcomes[attacker.name] = ()
            continue
        defense = defense_factory() if defense_factory is not None else None
        faults = _trial_injector(fault_plan, seed)
        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            latency=latency,
            rng=np.random.default_rng(seed + 1),
            defense=defense,
            faults=faults,
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(config.window_seconds)
        prober = Prober(network, retries=probe_retries)
        flows = [config.universe.flows[f] for f in probes]
        bits = tuple(prober.outcomes(flows))
        decisions[attacker.name] = attacker.decide(bits)
        outcomes[attacker.name] = bits
    return TrialResult(ground_truth=truth, decisions=decisions, outcomes=outcomes)


class _TableWorld:
    """Minimal reactive-switch semantics over a bare flow table.

    ``faults`` maps the loss kinds onto table semantics: packet-in loss
    strands the miss (no install, no reply), flow-mod loss skips the
    install but still replies (an observed miss), probe-reply loss
    leaves the probe unobserved.  Controller jitter/outage faults are
    no-ops here -- table mode has idealised timing, so there is no
    latency for them to perturb.
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
        metrics = get_instrumentation().metrics
        self._retry_counter = metrics.counter("attacker.probe.retries")
        self._unobserved_counter = metrics.counter("attacker.probe.unobserved")

    def _process(self, flow_index: int, time: float) -> Tuple[bool, bool]:
        """One packet through the table: ``(cache_hit, reply_returns)``."""
        flow = self.config.universe.flows[flow_index]
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
        hit, _ = self._process(flow_index, time)
        return hit

    def probe(
        self, flow_index: int, time: float, retries: int = 0
    ) -> Optional[int]:
        """Probe semantics: outcome bit plus the install perturbation.

        Returns ``None`` when every attempt went unanswered (only
        possible under fault injection).
        """
        faults = self.faults
        for attempt in range(int(retries) + 1):
            if attempt > 0:
                self._retry_counter.inc()
            hit, replied = self._process(flow_index, time)
            if replied and not (
                faults is not None and faults.drop_probe_reply()
            ):
                return int(hit)
        self._unobserved_counter.inc()
        return None


def run_table_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    probe_gap: float = 0.0005,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """One fast table-level trial (idealised timing, exact semantics)."""
    schedule = _trial_schedule(config, seed)
    truth = int(
        occurred_in_window(
            schedule, config.target_flow, 0.0, config.window_seconds
        )
    )
    decisions: Dict[str, int] = {}
    outcomes: Dict[str, Tuple[Optional[int], ...]] = {}
    for attacker in attackers:
        probes = attacker.plan()
        if not probes:
            decisions[attacker.name] = attacker.decide(())
            outcomes[attacker.name] = ()
            continue
        faults = _trial_injector(fault_plan, seed)
        world = _TableWorld(config, faults=faults)
        for arrival in schedule:
            world.arrival(arrival.flow_index, arrival.time)
        bits = tuple(
            world.probe(
                flow,
                config.window_seconds + index * probe_gap,
                retries=probe_retries,
            )
            for index, flow in enumerate(probes)
        )
        decisions[attacker.name] = attacker.decide(bits)
        outcomes[attacker.name] = bits
    return TrialResult(ground_truth=truth, decisions=decisions, outcomes=outcomes)


def run_adaptive_trial(
    config: NetworkConfiguration,
    adaptive_attacker: "AdaptiveModelAttacker",
    seed: int,
    mode: str = "table",
    baselines: Sequence[Attacker] = (),
    latency: Optional[LatencyModel] = None,
    probe_gap: float = 0.0005,
) -> TrialResult:
    """One trial driving an adaptive attacker (and optional baselines).

    The adaptive attacker interleaves probe selection and observation
    (:class:`repro.core.adaptive.AdaptiveModelAttacker`); each baseline
    runs against its own identically seeded replica, as in
    :func:`run_trial`.
    """
    schedule = _trial_schedule(config, seed)
    truth = int(
        occurred_in_window(
            schedule, config.target_flow, 0.0, config.window_seconds
        )
    )
    decisions: Dict[str, int] = {}
    outcomes: Dict[str, Tuple[int, ...]] = {}

    session = adaptive_attacker.start_session()
    if mode == "table":
        world = _TableWorld(config)
        for arrival in schedule:
            world.arrival(arrival.flow_index, arrival.time)
        probe_time = config.window_seconds
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            session.observe(world.probe(flow, probe_time))
            probe_time += probe_gap
    elif mode == "network":
        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            latency=latency,
            rng=np.random.default_rng(seed + 1),
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(config.window_seconds)
        prober = Prober(network)
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            result = prober.measure(config.universe.flows[flow])
            session.observe(result.outcome)
    else:
        raise ValueError(f"unknown trial mode: {mode!r}")

    decisions[adaptive_attacker.name] = session.decide()
    outcomes[adaptive_attacker.name] = tuple(
        bit for _, bit in session.history
    )

    if baselines:
        baseline_trial = run_trial(
            config, baselines, seed, mode=mode, latency=latency
        )
        decisions.update(baseline_trial.decisions)
        outcomes.update(baseline_trial.outcomes)

    return TrialResult(
        ground_truth=truth, decisions=decisions, outcomes=outcomes
    )


@keyword_only
def run_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    *,
    mode: str = "network",
    latency: Optional[LatencyModel] = None,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """Dispatch on trial mode."""
    if mode == "network":
        return run_network_trial(
            config, attackers, seed, latency=latency,
            defense_factory=defense_factory,
            fault_plan=fault_plan, probe_retries=probe_retries,
        )
    if mode == "table":
        if defense_factory is not None:
            raise ValueError("defenses require network-mode trials")
        return run_table_trial(
            config, attackers, seed,
            fault_plan=fault_plan, probe_retries=probe_retries,
        )
    raise ValueError(f"unknown trial mode: {mode!r}")
