"""Experiment parameters (defaults = the paper's Section VI-A setup).

``ExperimentParams`` wraps the configuration-sampling parameters
(:class:`~repro.flows.config.ConfigParams`) with evaluation knobs: how
many configurations and trials, whether trials run on the full
packet-level network simulation or the fast table-level replay, and the
attackers' probe budgets.

The paper runs 100 configurations x 100 trials per figure; that takes
tens of minutes here (it took a 128 GB server there), so the scale is a
parameter and the benchmark suite defaults to a reduced scale unless
``REPRO_FULL=1`` is exported.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

from repro.faults import FaultPlan
from repro.flows.config import ConfigParams


@dataclass(frozen=True)
class ExperimentParams:
    """Evaluation knobs on top of the configuration sampler."""

    config: ConfigParams = field(default_factory=ConfigParams)
    n_configs: int = 100
    n_trials: int = 100
    seed: Optional[int] = None
    #: "network" = packet-level DES; "table" = fast flow-table replay.
    trial_mode: str = "network"
    n_probes: int = 1
    #: Attacker decision rule for single probes: "query" or "map".
    #: The paper's model attacker returns the query bit directly, which
    #: the viability screen makes sound for the *optimal* probe.
    decision: str = "query"
    #: Decision rule for the constrained (Figure 7) attacker.  Its probe
    #: may fail the query-viability condition (the viable probe being
    #: exactly the forbidden one), so it classifies via the posterior.
    constrained_decision: str = "map"
    #: Apply the paper's detector-viability screen to configurations.
    screen: bool = True
    random_attacker_mode: str = "sample"
    #: Seeded fault injection applied to every trial (docs/FAULTS.md);
    #: ``None`` (and an all-zero plan) leaves trials bit-identical to
    #: the fault-free pipeline.
    fault_plan: Optional[FaultPlan] = None
    #: Probe retransmissions after an unanswered probe (``Prober``).
    probe_retries: int = 0
    #: Processes for the experiment layer's trial/config fan-out
    #: (repro.experiments.parallel; 1 = run in this process, one
    #: candidate per screening batch).  Results are bit-identical for
    #: every setting -- see EXPERIMENTS.md.
    trial_jobs: int = 1

    def __post_init__(self) -> None:
        if self.n_configs < 1 or self.n_trials < 1:
            raise ValueError("n_configs and n_trials must be >= 1")
        if self.trial_mode not in ("network", "table"):
            raise ValueError(f"unknown trial mode: {self.trial_mode!r}")
        if self.n_probes < 1:
            raise ValueError("n_probes must be >= 1")
        if self.probe_retries < 0:
            raise ValueError("probe_retries must be >= 0")
        if self.trial_jobs < 1:
            raise ValueError("trial_jobs must be >= 1")

    def with_absence_range(
        self, low: float, high: float
    ) -> "ExperimentParams":
        """Copy with the target-flow absence range replaced."""
        return replace(self, config=replace(self.config, absence_range=(low, high)))

    def scaled(self, factor: float) -> "ExperimentParams":
        """Copy with configuration and trial counts scaled down/up."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return replace(
            self,
            n_configs=max(1, int(self.n_configs * factor)),
            n_trials=max(1, int(self.n_trials * factor)),
        )


def bench_scale() -> float:
    """Benchmark scale factor from the environment.

    ``REPRO_FULL=1`` runs the paper-scale experiments; ``REPRO_SCALE``
    overrides the factor directly; the default keeps each benchmark in
    the tens of seconds.
    """
    if os.environ.get("REPRO_FULL") == "1":
        return 1.0
    override = os.environ.get("REPRO_SCALE")
    if override:
        return float(override)
    return 0.08


#: Absence-probability bins for Figures 6a and 7b.  The paper samples
#: targets "for which the probability of absence is within a specific
#: range (defined by the experiment parameters)"; these ranges span the
#: x-axes of those figures.
ABSENCE_BINS: Tuple[Tuple[float, float], ...] = (
    (0.05, 0.2),
    (0.2, 0.35),
    (0.35, 0.5),
    (0.5, 0.65),
    (0.65, 0.8),
    (0.8, 0.95),
)

#: Bins where the paper's viability screen actually accepts
#: configurations at a workable rate.  With rule TTLs <= 1 s and a 15 s
#: window, `P(X̂=0 | Q=0) > 0.5` is unsatisfiable for frequent targets
#: (cache evidence decays within the TTL), so the low-absence bins of
#: :data:`ABSENCE_BINS` reject essentially everything; see
#: EXPERIMENTS.md.  The figure pipelines and CLI default to these.
VIABLE_FIG6_BINS: Tuple[Tuple[float, float], ...] = (
    (0.35, 0.65),
    (0.65, 0.95),
)
VIABLE_FIG7_BINS: Tuple[Tuple[float, float], ...] = (
    (0.35, 0.55),
    (0.55, 0.75),
    (0.75, 0.95),
)


def split_configs(n_configs: int, n_bins: int) -> List[int]:
    """Configurations to sample in each of ``n_bins`` absence bins.

    Exactly ``n_configs`` in all, the first bins taking the remainder.
    Fewer configurations than bins raise ``ValueError``.
    """
    if n_configs < n_bins:
        raise ValueError(
            f"n_configs={n_configs} is fewer than the {n_bins} absence "
            "bins: ask for at least one configuration per bin"
        )
    base, extra = divmod(n_configs, n_bins)
    return [base + (index < extra) for index in range(n_bins)]
