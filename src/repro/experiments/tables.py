"""The paper's tabular measurements.

* :func:`timing_table` -- the Section VI-A latency characterisation:
  mean and standard deviation of the attacker's observed response time
  with and without a covering rule cached, versus the paper's measured
  values, plus the achievable threshold-classification accuracy.
* :func:`statecount_report` -- the Section IV-A2 / IV-B state-space
  comparison, including the paper's worked example.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Dict, List

import numpy as np

from repro.analysis.statecount import (
    basic_state_count_uniform,
    compact_state_count,
)
from repro.flows.config import enumerate_mask_rules
from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.universe import FlowUniverse
from repro.simulator.network import Network
from repro.simulator.probing import Prober
from repro.simulator.timing import (
    DEFAULT_THRESHOLD_SECONDS,
    PAPER_HIT_MEAN,
    PAPER_HIT_STD,
    PAPER_MISS_MEAN,
    PAPER_MISS_STD,
)

#: The evaluation's state-space parameters: 12 rules, cache 6, and the
#: largest TTL in the menu at ``Delta = 0.1`` (in steps).
STATECOUNT_RULES = 12
STATECOUNT_TIMEOUT = 10
STATECOUNT_CACHE = 6


@dataclass(frozen=True)
class TimingRow:
    """One latency population: measured vs paper statistics (seconds)."""

    label: str
    mean: float
    std: float
    paper_mean: float
    paper_std: float
    samples: int


def timing_table(n_samples: int = 300, seed: int = 0) -> Dict[str, object]:
    """Measure the hit/miss latency populations on the simulator.

    Reproduces the Section VI-A measurement: a single reactive rule is
    repeatedly allowed to expire, probed cold (miss, controller round
    trip) and immediately probed again warm (hit).  Returns the two
    :class:`TimingRow` populations and the threshold-classification
    accuracy at the paper's 1 ms cut.
    """
    base_rule = next(
        rule for rule in enumerate_mask_rules() if rule.name == "r_m0_000"
    )
    rules = [replace(base_rule, priority=1000, idle_timeout=1.0)]
    flows = tuple(
        FlowId(src=str_to_ip("10.0.1.0") + i, dst=str_to_ip("10.0.1.16"))
        for i in range(16)
    )
    universe = FlowUniverse(flows, tuple([0.0] * 16))
    network = Network(
        rules,
        universe,
        cache_size=6,
        rng=np.random.default_rng(seed),
    )
    prober = Prober(network)
    threshold = DEFAULT_THRESHOLD_SECONDS
    probe_flow = flows[0]

    miss_rtts: List[float] = []
    hit_rtts: List[float] = []
    for _ in range(n_samples):
        network.sim.run_until(network.sim.now + 2.0)  # let the rule expire
        miss = prober.measure(probe_flow)
        hit = prober.measure(probe_flow)
        if miss.rtt is not None:
            miss_rtts.append(miss.rtt)
        if hit.rtt is not None:
            hit_rtts.append(hit.rtt)

    correct = sum(1 for rtt in hit_rtts if rtt < threshold) + sum(
        1 for rtt in miss_rtts if rtt >= threshold
    )
    total = len(hit_rtts) + len(miss_rtts)

    return {
        "hit": TimingRow(
            label="covering rule cached",
            mean=statistics.mean(hit_rtts),
            std=statistics.pstdev(hit_rtts),
            paper_mean=PAPER_HIT_MEAN,
            paper_std=PAPER_HIT_STD,
            samples=len(hit_rtts),
        ),
        "miss": TimingRow(
            label="rule setup required",
            mean=statistics.mean(miss_rtts),
            std=statistics.pstdev(miss_rtts),
            paper_mean=PAPER_MISS_MEAN,
            paper_std=PAPER_MISS_STD,
            samples=len(miss_rtts),
        ),
        "threshold": threshold,
        "threshold_accuracy": correct / total if total else 0.0,
    }


def statecount_report() -> Dict[str, object]:
    """The basic-vs-compact state-space comparison.

    At the evaluation's parameters (:data:`STATECOUNT_RULES`,
    :data:`STATECOUNT_TIMEOUT`, :data:`STATECOUNT_CACHE`); also includes
    the paper's Section IV-A2 worked example (10 rules, t=100, n=8) with
    both the formula's value and the figure the paper quotes.
    """
    return {
        "experiment": {
            "n_rules": STATECOUNT_RULES,
            "timeout": STATECOUNT_TIMEOUT,
            "cache_size": STATECOUNT_CACHE,
            "basic": basic_state_count_uniform(
                STATECOUNT_RULES, STATECOUNT_TIMEOUT, STATECOUNT_CACHE
            ),
            "compact": compact_state_count(STATECOUNT_RULES, STATECOUNT_CACHE),
        },
        "paper_example": {
            "n_rules": 10,
            "timeout": 100,
            "cache_size": 8,
            "basic_formula": basic_state_count_uniform(10, 100, 8),
            "paper_quoted": 5.9e7,
        },
    }
