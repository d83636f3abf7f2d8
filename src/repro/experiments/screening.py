"""Configuration screens (Section VI-B).

The paper restricts its evaluation to network configurations "for which
our calculated ``P(X̂=0 | Q_f=0) > 0.5`` and ``P(X̂=1 | Q_f=1) > 0.5``"
for the optimal probe ``f`` -- i.e. configurations where the probe's
raw outcome bit works as a detector on both sides.  ("An attacker would
presumably not use our detection method on a network configuration not
meeting this condition.")

This module names the screens explicitly so the harness, the figure
pipelines, and downstream users apply exactly the same criteria:

* :func:`paper_screen` -- the condition above, which every sampled
  configuration must pass;
* :func:`screen_report` -- all quantities a screen decision rests on,
  for logging and debugging rejected configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe


@dataclass(frozen=True)
class ScreenReport:
    """Everything the screens look at, for one configuration."""

    optimal_probe: int
    optimal_gain: float
    p_hit: float
    p_miss: float
    posterior_absent_given_miss: float
    posterior_present_given_hit: float

    @property
    def paper_accepted(self) -> bool:
        """The Section VI-B condition."""
        return (
            self.p_hit > 0.0
            and self.p_miss > 0.0
            and self.posterior_absent_given_miss > 0.5
            and self.posterior_present_given_hit > 0.5
        )


def screen_report(
    inference: ReconInference, probe: Optional[int] = None
) -> ScreenReport:
    """Compute the screen quantities for a fitted inference.

    ``probe`` defaults to the information-gain-optimal flow, matching
    the paper's procedure.
    """
    if probe is None:
        choice = best_single_probe(inference)
        probe = choice.probes[0]
        gain = choice.gain
    else:
        gain = inference.information_gain((probe,))
    table = inference.outcome_table((probe,))
    return ScreenReport(
        optimal_probe=int(probe),
        optimal_gain=gain,
        p_hit=table.outcome_probs.get((1,), 0.0),
        p_miss=table.outcome_probs.get((0,), 0.0),
        posterior_absent_given_miss=table.posterior_absent((0,)),
        posterior_present_given_hit=table.posterior_present((1,)),
    )


def paper_screen(
    inference: ReconInference, probe: Optional[int] = None
) -> bool:
    """The paper's detector-viability screen."""
    return screen_report(inference, probe).paper_accepted
