"""Configuration screens (Section VI-B).

The paper restricts its evaluation to network configurations "for which
our calculated ``P(X̂=0 | Q_f=0) > 0.5`` and ``P(X̂=1 | Q_f=1) > 0.5``"
for the optimal probe ``f`` -- i.e. configurations where the probe's
raw outcome bit works as a detector on both sides.  ("An attacker would
presumably not use our detection method on a network configuration not
meeting this condition.")

:func:`screen` is the one implementation of that condition, vectorised
over probes: the harness screens its optimal probe through
:func:`paper_screen`, and the float32 pre-pass
(:mod:`repro.experiments.fastscreen`) calls the exact screen's function
on its replica rows over all flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.inference import ReconInference, coverage_split


@dataclass(frozen=True)
class Screen:
    """The screen's quantities, one entry per probe."""

    p_miss: np.ndarray
    p_hit: np.ndarray
    #: ``P(X̂ = 0 ∧ Q_f = 0)`` and ``P(X̂ = 0 ∧ Q_f = 1)``.
    joint_absent_miss: np.ndarray
    joint_absent_hit: np.ndarray
    posterior_absent_given_miss: np.ndarray
    posterior_present_given_hit: np.ndarray

    @property
    def accepted(self) -> np.ndarray:
        """The Section VI-B condition, per probe."""
        return (
            (self.p_hit > 0.0)
            & (self.p_miss > 0.0)
            & (self.posterior_absent_given_miss > 0.5)
            & (self.posterior_present_given_hit > 0.5)
        )


def screen(
    full: np.ndarray, absent: np.ndarray, coverage: np.ndarray
) -> Screen:
    """The screen of every probe whose coverage row is in ``coverage``.

    ``full`` and ``absent`` are ``(1, n_states)`` rows: the pruned chain
    weighting and the pruned target-excluded weighting.  Each is split
    by its own :func:`~repro.core.inference.coverage_split` call, as
    :meth:`~repro.core.inference.ReconInference.outcome_arrays` splits
    them, so every value equals the outcome table's bit for bit.  A
    posterior clamps its joint into ``[0, p]`` and divides; it is 0.5
    where the outcome probability is zero.
    """
    (p_miss,), (p_hit,) = coverage_split(full, coverage)
    (joint_miss,), (joint_hit,) = coverage_split(absent, coverage)
    with np.errstate(divide="ignore", invalid="ignore"):
        post_miss = np.clip(joint_miss, 0.0, p_miss) / p_miss
        post_hit = np.clip(joint_hit, 0.0, p_hit) / p_hit
    return Screen(
        p_miss=p_miss,
        p_hit=p_hit,
        joint_absent_miss=joint_miss,
        joint_absent_hit=joint_hit,
        posterior_absent_given_miss=np.where(p_miss > 0.0, post_miss, 0.5),
        posterior_present_given_hit=1.0 - np.where(p_hit > 0.0, post_hit, 0.5),
    )


def paper_screen(inference: ReconInference, probe: int) -> bool:
    """The paper's detector-viability screen of one probe."""
    result = screen(
        inference.prefix_distribution(()),
        inference.prefix_distribution((), exclusion=(inference.target_flow,)),
        inference.model.coverage_matrix((int(probe),)),
    )
    return bool(result.accepted[0])
