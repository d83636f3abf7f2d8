"""Figure 7: the constrained model attacker.

Figure 7 drops Figure 6's "optimal probe differs from target"
restriction and instead *forbids* the model attacker from probing the
target flow even when it is the optimal choice -- the scenario where
forging the target would raise alerts or the attacker sits at the wrong
vantage point.  The attack is considered effective if it does as well
as probing the target would have (the naive attacker), and it should
beat the random attacker comfortably.

* **Figure 7a**: average accuracy vs the number of rules covering the
  target flow.
* **Figure 7b**: average accuracy vs the target's probability of
  absence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.experiments.harness import (
    ConfigResult,
    sample_screened_harnesses,
)
from repro.experiments.params import VIABLE_FIG7_BINS, split_configs
from repro.obs import get_instrumentation

if TYPE_CHECKING:
    from repro.apispec import JobSpec

#: Attackers plotted in Figure 7.
FIG7_ATTACKERS: Tuple[str, ...] = ("constrained", "naive", "random")


@dataclass
class Fig7Result:
    """Everything needed to print/plot Figures 7a and 7b."""

    bins: Tuple[Tuple[float, float], ...]
    results_per_bin: List[List[ConfigResult]] = field(repr=False)
    #: Pool maps (screening and trials) re-run in the parent after a
    #: pool failure.
    pool_fallbacks: int = 0

    def _all_results(self) -> List[ConfigResult]:
        return [r for bucket in self.results_per_bin for r in bucket]

    # ------------------------------------------------------------------
    # Figure 7a: accuracy vs number of rules covering the target
    # ------------------------------------------------------------------
    def accuracy_by_covering_count(
        self,
    ) -> Dict[int, Dict[str, float]]:
        """Mean accuracies grouped by #rules covering the target."""
        groups: Dict[int, List[ConfigResult]] = {}
        for result in self._all_results():
            groups.setdefault(result.n_rules_covering_target, []).append(result)
        table: Dict[int, Dict[str, float]] = {}
        for count, bucket in sorted(groups.items()):
            table[count] = {
                name: sum(r.accuracies[name] for r in bucket) / len(bucket)
                for name in FIG7_ATTACKERS
            }
            table[count]["n_configs"] = float(len(bucket))
        return table

    # ------------------------------------------------------------------
    # Figure 7b: accuracy vs probability of absence
    # ------------------------------------------------------------------
    def accuracy_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-absence-bin mean accuracy for the three attackers."""
        series: Dict[str, List[Optional[float]]] = {
            name: [] for name in FIG7_ATTACKERS
        }
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
    # Sharing-structure split (explains the constrained-naive gap)
    # ------------------------------------------------------------------
    def accuracy_by_sharing(self) -> Dict[str, Dict[str, float]]:
        """Mean accuracies split by the target's rule-sharing regime.

        ``"shared"``: the target's install rule also covers other flows,
        so sibling probes carry its cache signal -- the constrained
        attacker can match naive.  ``"exclusive"``: the install rule is
        a microflow; no admissible probe sees the target's tracks and
        the constrained attacker falls back to the prior.
        """
        groups: Dict[str, List[ConfigResult]] = {"shared": [], "exclusive": []}
        for result in self._all_results():
            key = (
                "exclusive" if result.target_install_exclusive else "shared"
            )
            groups[key].append(result)
        table: Dict[str, Dict[str, float]] = {}
        for key, bucket in groups.items():
            if not bucket:
                continue
            table[key] = {
                name: sum(r.accuracies[name] for r in bucket) / len(bucket)
                for name in FIG7_ATTACKERS
            }
            table[key]["n_configs"] = float(len(bucket))
        return table

    def summary(self) -> Dict[str, float]:
        """Mean accuracies pooled over all configurations."""
        results = self._all_results()
        summary = {
            name: sum(r.accuracies[name] for r in results) / len(results)
            for name in FIG7_ATTACKERS
        }
        summary["n_configs"] = float(len(results))
        summary["constrained_minus_naive"] = (
            summary["constrained"] - summary["naive"]
        )
        return summary


def run_fig7(
    spec: "JobSpec",
    *,
    bins: Sequence[Tuple[float, float]] = VIABLE_FIG7_BINS,
    configs_per_bin: Optional[int] = None,
    max_attempts_factor: int = 150,
) -> Fig7Result:
    """Run the Figure 7 experiment (viability screen only).

    ``spec`` is a :class:`~repro.apispec.JobSpec`; anything else raises
    ``TypeError``.  Its ``n_configs`` configurations are split across the
    bins as :func:`~repro.experiments.fig6.run_fig6` splits them.
    """
    from repro.apispec import require_spec
    from repro.countermeasures.registry import single_defense_factory

    spec, params = require_spec(spec, caller="run_fig7")
    defense_factory = single_defense_factory(
        spec.defense, caller="run_fig7"
    )
    bins = tuple(bins)
    counts = split_configs(params.n_configs, len(bins), configs_per_bin)
    results: List[List[ConfigResult]] = []
    obs = get_instrumentation()
    fallbacks = 0
    for (low, high), per_bin in zip(bins, counts):
        bin_params = params.with_absence_range(low, high)
        with obs.span("experiment.fig7.bin", low=low, high=high):
            harnesses = sample_screened_harnesses(
                bin_params,
                per_bin,
                require_optimal_differs=False,
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
    return Fig7Result(bins=bins, results_per_bin=results, pool_fallbacks=fallbacks)
