"""Figure 6: model attacker vs naive attacker.

The paper's Figure 6 restricts attention to network configurations in
which (a) the optimal probe works as a detector (the viability screen)
and (b) the model-calculated optimal probe differs from the target flow
-- i.e. configurations where the model attacker and the naive attacker
actually behave differently.

* **Figure 6a**: average accuracy of each attacker, as a function of the
  target flow's probability of absence (we reproduce the x-axis by
  sampling configurations within successive absence bins).
* **Figure 6b**: the CDF, across configurations, of the additive
  improvement in average accuracy of the model attacker over the naive
  attacker.

Paper headlines this module's output should reproduce in shape: ~2%
mean improvement overall, >= 15% improvement for ~20% of configurations
and >= 35% for ~5%; accuracy gaps widen as the probability of absence
grows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cdf import empirical_cdf, survival_at
from repro.experiments.harness import (
    ConfigResult,
    sample_screened_harnesses,
)
from repro.experiments.params import VIABLE_FIG6_BINS, split_configs
from repro.obs import get_instrumentation

if TYPE_CHECKING:
    from repro.apispec import JobSpec


@dataclass
class Fig6Result:
    """Everything needed to print/plot Figures 6a and 6b."""

    bins: Tuple[Tuple[float, float], ...]
    results_per_bin: List[List[ConfigResult]] = field(repr=False)
    #: Pool maps (screening and trials) re-run in the parent after a
    #: pool failure.
    pool_fallbacks: int = 0

    # ------------------------------------------------------------------
    # Figure 6a
    # ------------------------------------------------------------------
    def accuracy_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-bin mean accuracy for the model and naive attackers."""
        series: Dict[str, List[Optional[float]]] = {"model": [], "naive": []}
        for bucket in self.results_per_bin:
            for name in series:
                if bucket:
                    series[name].append(
                        sum(r.accuracies[name] for r in bucket) / len(bucket)
                    )
                else:
                    series[name].append(None)
        return series

    def bin_centers(self) -> List[float]:
        """Midpoints of the absence-probability bins."""
        return [(low + high) / 2 for low, high in self.bins]

    # ------------------------------------------------------------------
    # Figure 6b
    # ------------------------------------------------------------------
    def improvements(self) -> List[float]:
        """Per-configuration additive improvements (all bins pooled)."""
        return [
            result.improvement
            for bucket in self.results_per_bin
            for result in bucket
        ]

    def improvement_cdf(self) -> List[Tuple[float, float]]:
        """Empirical CDF points of the improvements (Figure 6b)."""
        return empirical_cdf(self.improvements())

    # ------------------------------------------------------------------
    # Headline numbers (Sections I and VI)
    # ------------------------------------------------------------------
    def headline(self) -> Dict[str, float]:
        """The paper's summary statistics over these configurations."""
        improvements = self.improvements()
        all_results = [r for bucket in self.results_per_bin for r in bucket]
        mean_improvement = sum(improvements) / len(improvements)
        return {
            "mean_improvement": mean_improvement,
            "frac_configs_improving_15pct": survival_at(improvements, 0.15),
            "frac_configs_improving_35pct": survival_at(improvements, 0.35),
            "mean_model_accuracy": sum(
                r.accuracies["model"] for r in all_results
            )
            / len(all_results),
            "mean_naive_accuracy": sum(
                r.accuracies["naive"] for r in all_results
            )
            / len(all_results),
            "n_configs": float(len(all_results)),
        }


def run_fig6(
    spec: "JobSpec",
    *,
    bins: Sequence[Tuple[float, float]] = VIABLE_FIG6_BINS,
    configs_per_bin: Optional[int] = None,
    max_attempts_factor: int = 400,
) -> Fig6Result:
    """Run the Figure 6 experiment.

    ``spec`` is a :class:`~repro.apispec.JobSpec`; anything else raises
    ``TypeError``.  Exactly its ``n_configs`` configurations are split
    across the absence bins, the first bins taking the remainder
    (:func:`~repro.experiments.params.split_configs`; fewer than one per
    bin raises ``ValueError``), unless ``configs_per_bin`` is given.  Each
    sampled configuration must pass the viability screen *and* have its
    optimal probe differ from the target -- a rare combination (a few
    percent of random configurations), hence the generous
    rejection-sampling budget ``max_attempts_factor``.
    """
    from repro.apispec import require_spec
    from repro.countermeasures.registry import single_defense_factory

    spec, params = require_spec(spec, caller="run_fig6")
    defense_factory = single_defense_factory(
        spec.defense, caller="run_fig6"
    )
    bins = tuple(bins)
    counts = split_configs(params.n_configs, len(bins), configs_per_bin)
    results: List[List[ConfigResult]] = []
    obs = get_instrumentation()
    fallbacks = 0
    for (low, high), per_bin in zip(bins, counts):
        bin_params = params.with_absence_range(low, high)
        with obs.span("experiment.fig6.bin", low=low, high=high):
            harnesses = sample_screened_harnesses(
                bin_params,
                per_bin,
                require_optimal_differs=True,
                max_attempts_factor=max_attempts_factor,
            )
            bucket = [
                harness.run_trials(defense_factory=defense_factory)
                for harness in harnesses
            ]
        fallbacks += harnesses.pool_fallbacks + sum(
            result.pool_fallbacks for result in bucket
        )
        results.append(bucket)
    return Fig6Result(bins=bins, results_per_bin=results, pool_fallbacks=fallbacks)
