"""The Section VI evaluation harness.

Reproduces every evaluation artifact in the paper:

* :mod:`repro.experiments.fig6` -- Figures 6a/6b (model vs naive
  attacker on configurations where the optimal probe differs from the
  target flow).
* :mod:`repro.experiments.fig7` -- Figures 7a/7b (the constrained model
  attacker vs naive and random).
* :mod:`repro.experiments.tables` -- the Section VI-A timing
  measurements and the Section IV state-count comparison.
* :mod:`repro.experiments.harness` / :mod:`repro.experiments.trials` --
  the per-configuration machinery shared by all of the above.
"""

from repro.experiments.params import ExperimentParams
from repro.experiments.harness import ConfigHarness, ConfigResult
from repro.experiments.trials import TrialResult, run_trial
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.robustness import RobustnessResult, run_robustness
from repro.experiments.tables import timing_table, statecount_report

__all__ = [
    "ExperimentParams",
    "ConfigHarness",
    "ConfigResult",
    "TrialResult",
    "run_trial",
    "Fig6Result",
    "run_fig6",
    "Fig7Result",
    "run_fig7",
    "RobustnessResult",
    "run_robustness",
    "timing_table",
    "statecount_report",
]
