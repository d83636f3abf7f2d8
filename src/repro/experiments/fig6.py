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

from typing import TYPE_CHECKING, ClassVar, Dict, List, Tuple

from repro.analysis.cdf import empirical_cdf, survival_at
from repro.experiments.harness import BinnedResult, mean_accuracy, run_binned
from repro.experiments.params import VIABLE_FIG6_BINS

if TYPE_CHECKING:
    from repro.apispec import JobSpec

#: Candidates sampled per requested configuration before a bin gives up.
MAX_ATTEMPTS_FACTOR = 400


class Fig6Result(BinnedResult):
    """Everything needed to print/plot Figures 6a and 6b.

    :meth:`accuracy_series` (Figure 6a) is the per-bin mean accuracy of
    the model and naive attackers.
    """

    ATTACKERS: ClassVar[Tuple[str, ...]] = ("model", "naive")

    # ------------------------------------------------------------------
    # Figure 6b
    # ------------------------------------------------------------------
    def improvements(self) -> List[float]:
        """Per-configuration additive improvements (all bins pooled)."""
        return [result.improvement for result in self._all_results()]

    def improvement_cdf(self) -> List[Tuple[float, float]]:
        """Empirical CDF points of the improvements (Figure 6b)."""
        return empirical_cdf(self.improvements())

    # ------------------------------------------------------------------
    # Headline numbers (Sections I and VI)
    # ------------------------------------------------------------------
    def headline(self) -> Dict[str, float]:
        """The paper's summary statistics over these configurations."""
        improvements = self.improvements()
        all_results = self._all_results()
        return {
            "mean_improvement": sum(improvements) / len(improvements),
            "frac_configs_improving_15pct": survival_at(improvements, 0.15),
            "frac_configs_improving_35pct": survival_at(improvements, 0.35),
            "mean_model_accuracy": mean_accuracy(all_results, "model"),
            "mean_naive_accuracy": mean_accuracy(all_results, "naive"),
            "n_configs": float(len(all_results)),
        }


def run_fig6(spec: "JobSpec") -> Fig6Result:
    """Run the Figure 6 experiment ``spec`` describes.

    ``spec``'s configurations are split across
    :data:`~repro.experiments.params.VIABLE_FIG6_BINS` as
    :func:`~repro.experiments.harness.run_binned` splits them.  Each
    sampled configuration must pass the viability screen *and* have its
    optimal probe differ from the target -- a rare combination (a few
    percent of random configurations), hence the generous
    rejection-sampling budget :data:`MAX_ATTEMPTS_FACTOR`.
    """
    return run_binned(
        Fig6Result,
        spec,
        experiment="fig6",
        bins=VIABLE_FIG6_BINS,
        require_optimal_differs=True,
        max_attempts_factor=MAX_ATTEMPTS_FACTOR,
    )
