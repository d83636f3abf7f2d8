"""Attacker strategies evaluated in the paper (Section VI).

Every attacker exposes the same two-phase interface driven by the trial
runners: :meth:`Attacker.plan` returns the ordered probe flows to inject,
and :meth:`Attacker.decide` maps the observed hit/miss outcome vector to
the attacker's verdict on ``X̂`` (1 = "target flow occurred within the
window").

* :class:`NaiveAttacker` -- probes the target flow itself and returns
  the raw outcome bit (the paper's baseline).
* :class:`ModelAttacker` -- selects the probe(s) maximising information
  gain using the compact model; with a single probe it returns the
  outcome bit directly (the paper's decision rule, valid under the
  viability screen), with multiple probes it classifies through the
  decision tree's MAP posteriors.
* :class:`ConstrainedModelAttacker` -- the Figure 7 attacker: model
  based but barred from probing the target flow (wrong vantage point,
  or probing the target would raise alerts).
* :class:`RandomAttacker` -- sends no probes; guesses from the prior
  (the paper's "random attacker" reference line).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.decision_tree import DecisionTree
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set


class Attacker(ABC):
    """Common interface: plan probes, then decide from their outcomes."""

    #: Short identifier used in result tables.
    name: str = "attacker"

    @abstractmethod
    def plan(self) -> Tuple[int, ...]:
        """Ordered probe flow indices to inject."""

    @abstractmethod
    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        """Verdict on ``X̂`` given the observed outcome bits.

        A ``None`` entry marks a probe that went unanswered (timed out
        despite retries -- see ``Prober``); implementations must degrade
        gracefully rather than crash or silently assume a miss.
        """


class NaiveAttacker(Attacker):
    """Probe the target flow; answer with the raw hit bit."""

    name = "naive"

    def __init__(self, target_flow: int) -> None:
        self.target_flow = int(target_flow)

    def plan(self) -> Tuple[int, ...]:
        return (self.target_flow,)

    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        if len(outcomes) != 1:
            raise ValueError("naive attacker expects exactly one outcome")
        if outcomes[0] is None:
            # The naive attacker has no model to marginalise with; an
            # unanswered probe carries no timing signal, so it answers
            # "absent" (the paper's naive rule answers the raw bit).
            return 0
        return int(outcomes[0])


class ModelAttacker(Attacker):
    """Information-gain-optimal probing via the compact model.

    Parameters
    ----------
    inference:
        Fitted :class:`~repro.core.inference.ReconInference` for the
        target flow and window.
    candidates:
        Flows the attacker is able to launch (default: all).
    n_probes:
        Number of non-adaptive probes (Section V-B).
    decision:
        ``"query"`` returns the (single) probe's outcome bit, exactly as
        in the paper's evaluation; ``"map"`` classifies through the
        posterior decision tree.  Multi-probe attackers always use the
        tree.
    selection_method:
        ``"exhaustive"`` or ``"greedy"`` probe-set search.
    """

    name = "model"

    def __init__(
        self,
        inference: ReconInference,
        candidates: Optional[Sequence[int]] = None,
        n_probes: int = 1,
        decision: str = "query",
        selection_method: str = "exhaustive",
    ) -> None:
        if decision not in ("query", "map"):
            raise ValueError(f"unknown decision rule: {decision!r}")
        self.inference = inference
        self.n_probes = int(n_probes)
        self.decision = decision
        choice = best_probe_set(
            inference,
            self.n_probes,
            candidates=candidates,
            method=selection_method,
        )
        self.choice = choice
        # Built on first decision: the screening pipelines construct
        # (and discard) attackers for every rejection-sampled candidate
        # configuration, and only read the probe choice.
        self._tree_cache: Optional[DecisionTree] = None

    @property
    def _tree(self) -> DecisionTree:
        """The outcome classifier, built lazily from the probe choice."""
        if self._tree_cache is None:
            self._tree_cache = DecisionTree.build(
                self.inference, self.choice.probes
            )
        return self._tree_cache

    def plan(self) -> Tuple[int, ...]:
        return self.choice.probes

    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        if len(outcomes) != len(self.choice.probes):
            raise ValueError(
                f"expected {len(self.choice.probes)} outcomes, "
                f"got {len(outcomes)}"
            )
        if any(bit is None for bit in outcomes):
            # Unanswered probe(s): marginalise the missing bits over the
            # decision tree's leaf masses instead of assuming a miss.
            return self._tree.predict_partial(outcomes)
        observed = [int(bit) for bit in outcomes if bit is not None]
        if self.decision == "query" and len(observed) == 1:
            return observed[0]
        return self._tree.predict(observed)

    @property
    def probes(self) -> Tuple[int, ...]:
        """The selected probe flows."""
        return self.choice.probes

    @property
    def predicted_gain(self) -> float:
        """Model-predicted information gain of the selected probes."""
        return self.choice.gain


class ConstrainedModelAttacker(ModelAttacker):
    """Model attacker that may not probe the target flow (Figure 7)."""

    name = "constrained"

    def __init__(
        self,
        inference: ReconInference,
        n_probes: int = 1,
        decision: str = "query",
    ) -> None:
        allowed = [
            flow
            for flow in range(inference.model.context.n_flows)
            if flow != inference.target_flow
        ]
        if not allowed:
            raise ValueError("no candidate probes besides the target")
        super().__init__(
            inference, candidates=allowed, n_probes=n_probes, decision=decision
        )


class RandomAttacker(Attacker):
    """No probes; guess from the prior probability of occurrence.

    Each verdict is a Bernoulli(P(X̂=1)) draw: the paper's random
    attacker "simply chooses whether the flow occurred based on its a
    priori probability".
    """

    name = "random"

    def __init__(
        self, prior_present: float, rng: np.random.Generator
    ) -> None:
        if not 0.0 <= prior_present <= 1.0:
            raise ValueError(f"prior out of range: {prior_present}")
        self.prior_present = float(prior_present)
        #: The caller's generator: the harness and the service share
        #: theirs, so verdicts are drawn in trial order
        #: (repro.experiments.parallel).
        self._rng = rng

    def plan(self) -> Tuple[int, ...]:
        return ()

    def decide(self, outcomes: Sequence[Optional[int]]) -> int:
        if outcomes:
            raise ValueError("random attacker sends no probes")
        return int(self._rng.random() < self.prior_present)
