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

from typing import TYPE_CHECKING, ClassVar, Dict, List, Tuple

from repro.experiments.harness import (
    BinnedResult,
    ConfigResult,
    mean_accuracy,
    run_binned,
)
from repro.experiments.params import VIABLE_FIG7_BINS

if TYPE_CHECKING:
    from repro.apispec import JobSpec

#: Candidates sampled per requested configuration before a bin gives up.
MAX_ATTEMPTS_FACTOR = 150

#: Attackers plotted in Figure 7.
FIG7_ATTACKERS: Tuple[str, ...] = ("constrained", "naive", "random")


def _mean_accuracies(bucket: List[ConfigResult]) -> Dict[str, float]:
    """Each Figure 7 attacker's mean accuracy, plus the bucket size."""
    row = {name: mean_accuracy(bucket, name) for name in FIG7_ATTACKERS}
    row["n_configs"] = float(len(bucket))
    return row


class Fig7Result(BinnedResult):
    """Everything needed to print/plot Figures 7a and 7b.

    :meth:`accuracy_series` (Figure 7b) is the per-absence-bin mean
    accuracy of the three attackers.
    """

    ATTACKERS: ClassVar[Tuple[str, ...]] = FIG7_ATTACKERS

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
        return {
            count: _mean_accuracies(bucket)
            for count, bucket in sorted(groups.items())
        }

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
        return {
            key: _mean_accuracies(bucket)
            for key, bucket in groups.items()
            if bucket
        }

    def summary(self) -> Dict[str, float]:
        """Mean accuracies pooled over all configurations."""
        summary = _mean_accuracies(self._all_results())
        summary["constrained_minus_naive"] = (
            summary["constrained"] - summary["naive"]
        )
        return summary


def run_fig7(spec: "JobSpec") -> Fig7Result:
    """Run the Figure 7 experiment ``spec`` describes (viability screen only).

    ``spec``'s configurations are split across
    :data:`~repro.experiments.params.VIABLE_FIG7_BINS` as
    :func:`~repro.experiments.harness.run_binned` splits them.
    """
    return run_binned(
        Fig7Result,
        spec,
        experiment="fig7",
        bins=VIABLE_FIG7_BINS,
        require_optimal_differs=False,
        max_attempts_factor=MAX_ATTEMPTS_FACTOR,
    )
