"""The paper's contribution: switch Markov models and probe selection.

* :mod:`repro.core.compact_model` -- the Section IV-B compact chain over
  cached-rule *sets*, with eviction/timeout probabilities estimated from
  the recency (``u``) distribution.
* :mod:`repro.core.transition_build` -- the independence approximation
  of the ``u``-function sums (Eqns. 1-7), evaluated for every state at
  once, and the vectorised transition and probe outcomes built on it.
* :mod:`repro.core.inference` -- ``P(Q_f)``, ``P(X̂ ∧ Q_f)``, posteriors.
* :mod:`repro.core.gain` -- binary entropy and vectorised information
  gain (Section V).
* :mod:`repro.core.selection` -- optimal single- and multi-probe choice.
* :mod:`repro.core.decision_tree` -- the non-adaptive m-probe classifier.
* :mod:`repro.core.attacker` -- naive / model / constrained / random
  attacker policies used in the evaluation.
"""

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.gain import binary_entropy
from repro.core.selection import ProbeChoice, best_probe_set, best_single_probe
from repro.core.decision_tree import DecisionTree
from repro.core.attacker import (
    Attacker,
    ConstrainedModelAttacker,
    ModelAttacker,
    NaiveAttacker,
    RandomAttacker,
)
from repro.core.adaptive import AdaptiveModelAttacker, AdaptiveSession

__all__ = [
    "CompactModel",
    "ReconInference",
    "binary_entropy",
    "ProbeChoice",
    "best_single_probe",
    "best_probe_set",
    "DecisionTree",
    "Attacker",
    "NaiveAttacker",
    "ModelAttacker",
    "ConstrainedModelAttacker",
    "RandomAttacker",
    "AdaptiveModelAttacker",
    "AdaptiveSession",
]
