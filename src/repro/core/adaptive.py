"""Adaptive (sequential) probe selection — an extension of Section V.

The paper selects its ``m`` probes *non-adaptively*: the set is fixed
before any outcome is observed (Section V-B).  A strictly stronger
attacker chooses each next probe *after* seeing the previous outcomes,
conditioning the switch-state distribution as it goes.  This module
implements that attacker on top of the compact model:

* :class:`AdaptiveSession` carries the joint weightings
  ``P(state ∧ observations)`` and ``P(X̂=0 ∧ state ∧ observations)`` as
  two dense state vectors, updated after every observed probe by the
  same split-and-push as the engine's prefix rows
  (:func:`~repro.core.inference.push_probe`, the probe's own cache
  perturbation included);
* each step greedily picks the candidate flow with the largest
  *conditional* information gain about ``X̂`` given everything seen;
* the session stops after its probe budget or when no candidate gains
  more than ``min_gain``.

A note on optimality: the session is *myopic* — each probe maximises
the immediate conditional gain.  Against a non-adaptive plan executed
in the same first-probe order, myopic adaptivity weakly dominates
(each branch re-optimises the remaining probes).  A non-adaptive plan
executed in a *different order* can occasionally edge it out, because
probe order changes the cache perturbation and the canonical
(sorted-order) evaluation may exploit an ordering the myopic policy
never considers.  In practice the two are within a fraction of a
millibit of each other; the benchmarks report both.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.compact_model import CompactModel
from repro.core.engine import conditional_gains
from repro.core.gain import binary_entropy
from repro.core.inference import ReconInference, pruned, push_probe


class AdaptiveSession:
    """One adaptive probing session against one target flow.

    Usage (driven by a trial runner or a live attack loop)::

        session = AdaptiveSession(inference, candidates=range(16))
        while True:
            flow = session.next_probe()
            if flow is None:
                break
            bit = measure(flow)          # the real timing probe
            session.observe(bit)
        verdict = session.decide()
    """

    def __init__(
        self,
        inference: ReconInference,
        candidates: Optional[Sequence[int]] = None,
        max_probes: int = 3,
        min_gain: float = 1e-9,
        allow_repeats: bool = False,
    ) -> None:
        if max_probes < 1:
            raise ValueError("max_probes must be >= 1")
        self.inference = inference
        self.model: CompactModel = inference.model
        if candidates is None:
            candidates = range(self.model.context.n_flows)
        self.candidates = sorted(set(int(f) for f in candidates))
        if not self.candidates:
            raise ValueError("no candidate probes")
        self.max_probes = max_probes
        self.min_gain = min_gain
        self.allow_repeats = allow_repeats

        self._weights_full: np.ndarray = pruned(inference.dist_full)
        self._weights_absent: np.ndarray = pruned(inference.dist_absent)
        self.history: List[Tuple[int, int]] = []  # (flow, outcome)
        self._pending_flow: Optional[int] = None

    # ------------------------------------------------------------------
    # Posterior bookkeeping
    # ------------------------------------------------------------------
    @property
    def evidence_mass(self) -> float:
        """``P(observations so far)`` under the model."""
        return float(self._weights_full.sum())

    def posterior_absent(self) -> float:
        """``P(X̂ = 0 | observations)``; 0.5 when evidence mass is zero."""
        mass = self.evidence_mass
        if mass <= 0.0:
            return 0.5
        return min(float(self._weights_absent.sum()) / mass, 1.0)

    def decide(self) -> int:
        """MAP verdict on ``X̂`` from the current posterior."""
        return 1 if (1.0 - self.posterior_absent()) > 0.5 else 0

    # ------------------------------------------------------------------
    # Probe planning
    # ------------------------------------------------------------------
    def next_probe(self) -> Optional[int]:
        """The next probe flow, or ``None`` when the session is done.

        Must be followed by :meth:`observe` with the measured bit before
        the next call.  Candidate scoring runs on the engine's batched
        conditional-gain path; the winner scan runs in canonical
        candidate order, so ties break toward the lowest flow.
        """
        if self._pending_flow is not None:
            raise RuntimeError("observe() the pending probe first")
        if len(self.history) >= self.max_probes:
            return None
        used = {flow for flow, _ in self.history}
        allowed = [
            flow
            for flow in self.candidates
            if self.allow_repeats or flow not in used
        ]
        gains = conditional_gains(
            self.model,
            self._weights_full,
            self._weights_absent,
            allowed,
        )
        best_flow: Optional[int] = None
        best_gain = self.min_gain
        for flow, gain in zip(allowed, gains):
            if gain > best_gain + 1e-15:
                best_flow = flow
                best_gain = float(gain)
        if best_flow is None:
            return None
        self._pending_flow = best_flow
        return best_flow

    def observe(self, outcome: int) -> None:
        """Condition the session on the measured outcome bit."""
        if self._pending_flow is None:
            raise RuntimeError("no probe pending")
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0/1, got {outcome!r}")
        flow = self._pending_flow
        self._pending_flow = None
        rows = push_probe(
            self.model,
            np.stack([self._weights_full, self._weights_absent]),
            flow,
        )
        # Rows: full miss, full hit, absent miss, absent hit.
        self._weights_full = rows[outcome]
        self._weights_absent = rows[2 + outcome]
        self.history.append((flow, outcome))

    # ------------------------------------------------------------------
    # Model-predicted performance (no real network needed)
    # ------------------------------------------------------------------
    def expected_information(self) -> float:
        """Expected total information of a fresh session, in bits.

        Computed by expanding the adaptive policy's outcome tree under
        the model: ``H(X̂) - E[H(X̂ | leaf)]``.
        """
        root = AdaptiveSession(
            self.inference,
            candidates=self.candidates,
            max_probes=self.max_probes,
            min_gain=self.min_gain,
            allow_repeats=self.allow_repeats,
        )
        prior = self.inference.prior_absent()
        leaf_entropy = _expected_leaf_entropy(root)
        return max(binary_entropy(prior) - leaf_entropy, 0.0)


def _expected_leaf_entropy(session: AdaptiveSession) -> float:
    """Recursive expansion of the adaptive policy's outcome tree."""
    flow = session.next_probe()
    if flow is None:
        return binary_entropy(session.posterior_absent())
    total = 0.0
    mass = session.evidence_mass
    if mass <= 0.0:
        return 0.0
    for bit in (0, 1):
        child = AdaptiveSession(
            session.inference,
            candidates=session.candidates,
            max_probes=session.max_probes,
            min_gain=session.min_gain,
            allow_repeats=session.allow_repeats,
        )
        child._weights_full = session._weights_full
        child._weights_absent = session._weights_absent
        child.history = list(session.history)
        child._pending_flow = flow
        child.observe(bit)
        branch_mass = child.evidence_mass
        if branch_mass <= 0.0:
            continue
        total += (branch_mass / mass) * _expected_leaf_entropy(child)
    return total


class AdaptiveModelAttacker:
    """Trial-runner-facing wrapper around :class:`AdaptiveSession`.

    Unlike the non-adaptive :class:`~repro.core.attacker.Attacker`
    interface (plan once, decide once), adaptive attackers interleave
    probing and observation; trial runners drive them through
    :meth:`start_session`.
    """

    name = "adaptive"

    def __init__(self, inference: ReconInference, max_probes: int = 3) -> None:
        self.inference = inference
        self.max_probes = max_probes

    def start_session(self) -> AdaptiveSession:
        """A fresh session for one trial, free to probe any flow."""
        return AdaptiveSession(self.inference, max_probes=self.max_probes)
