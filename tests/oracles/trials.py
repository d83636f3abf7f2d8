"""Oracle: one identically seeded world replica per probing attacker.

Production builds a trial's detection window once and forks the
post-window world per distinct probe plan
(:func:`repro.experiments.trials.run_trial`), in both fidelity levels.
These oracles are the loops that fork path replaced: every attacker
with a non-empty plan gets its own freshly built world -- its own
defense from the factory, its own fault injector -- and replays the
same seeded window on it before probing.  :func:`run_network_trial`
and :func:`run_table_trial` do this per mode;
:func:`run_adaptive_trial` (network) and
:func:`run_adaptive_table_trial` likewise give the adaptive session and
the baselines replicas of their own.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import AdaptiveModelAttacker
from repro.core.attacker import Attacker
from repro.experiments.trials import (
    DefenseFactory,
    TrialResult,
    _TableWorld,
    _trial_injector,
    _trial_schedule,
)
from repro.countermeasures.base import Defense
from repro.faults import FaultInjector, FaultPlan
from repro.flows.arrival import occurred_in_window
from repro.flows.config import NetworkConfiguration
from repro.simulator.network import Network
from repro.simulator.probing import Prober


def run_network_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    defense_factory: Optional[DefenseFactory] = None,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """One packet-level trial on one replica per probing attacker."""
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
        network = _replica(
            config,
            seed,
            defense=defense_factory() if defense_factory is not None else None,
            faults=_trial_injector(fault_plan, seed),
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(config.window_seconds)
        prober = Prober(network, retries=probe_retries)
        flows = [config.universe.flows[f] for f in probes]
        bits = tuple(prober.outcomes(flows))
        decisions[attacker.name] = attacker.decide(bits)
        outcomes[attacker.name] = bits
    return TrialResult(ground_truth=truth, decisions=decisions, outcomes=outcomes)


def run_adaptive_trial(
    config: NetworkConfiguration,
    adaptive_attacker: AdaptiveModelAttacker,
    seed: int,
    baselines: Sequence[Attacker] = (),
) -> TrialResult:
    """A network-mode adaptive trial, the session on a replica of its own."""
    schedule = _trial_schedule(config, seed)
    truth = int(
        occurred_in_window(
            schedule, config.target_flow, 0.0, config.window_seconds
        )
    )
    session = adaptive_attacker.start_session()
    network = _replica(config, seed)
    network.schedule_arrivals(schedule)
    network.sim.run_until(config.window_seconds)
    prober = Prober(network)
    while True:
        flow = session.next_probe()
        if flow is None:
            break
        session.observe(prober.measure(config.universe.flows[flow]).outcome)
    decisions: Dict[str, int] = {adaptive_attacker.name: session.decide()}
    outcomes: Dict[str, Tuple[Optional[int], ...]] = {
        adaptive_attacker.name: tuple(bit for _, bit in session.history)
    }
    if baselines:
        baseline_trial = run_network_trial(config, baselines, seed)
        decisions.update(baseline_trial.decisions)
        outcomes.update(baseline_trial.outcomes)
    return TrialResult(ground_truth=truth, decisions=decisions, outcomes=outcomes)


def run_table_trial(
    config: NetworkConfiguration,
    attackers: Sequence[Attacker],
    seed: int,
    fault_plan: Optional[FaultPlan] = None,
    probe_retries: int = 0,
) -> TrialResult:
    """One table-level trial on one replayed table per probing attacker."""
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
            world.probe(config.universe.flows[flow], retries=probe_retries)
            for flow in probes
        )
        decisions[attacker.name] = attacker.decide(bits)
        outcomes[attacker.name] = bits
    return TrialResult(ground_truth=truth, decisions=decisions, outcomes=outcomes)


def run_adaptive_table_trial(
    config: NetworkConfiguration,
    adaptive_attacker: AdaptiveModelAttacker,
    seed: int,
    baselines: Sequence[Attacker] = (),
) -> TrialResult:
    """A table-mode adaptive trial, the session on a replay of its own."""
    schedule = _trial_schedule(config, seed)
    truth = int(
        occurred_in_window(
            schedule, config.target_flow, 0.0, config.window_seconds
        )
    )
    decisions: Dict[str, int] = {}
    outcomes: Dict[str, Tuple[Optional[int], ...]] = {}

    session = adaptive_attacker.start_session()
    world = _TableWorld(config)
    for arrival in schedule:
        world.arrival(arrival.flow_index, arrival.time)
    while True:
        flow = session.next_probe()
        if flow is None:
            break
        session.observe(world.probe(config.universe.flows[flow]))

    decisions[adaptive_attacker.name] = session.decide()
    outcomes[adaptive_attacker.name] = tuple(
        bit for _, bit in session.history
    )
    if baselines:
        baseline_trial = run_table_trial(config, baselines, seed)
        decisions.update(baseline_trial.decisions)
        outcomes.update(baseline_trial.outcomes)
    return TrialResult(
        ground_truth=truth, decisions=decisions, outcomes=outcomes
    )


def _replica(
    config: NetworkConfiguration,
    seed: int,
    defense: Optional[Defense] = None,
    faults: Optional[FaultInjector] = None,
) -> Network:
    """A freshly built network seeded like every other replica."""
    network = Network(
        config.concrete_rules,
        config.universe,
        cache_size=config.cache_size,
        rng=np.random.default_rng(seed + 1),
    )
    network.attach(defense, faults)
    return network
