"""Optimal probe selection (Section V).

Single-probe selection maximises ``IG(X̂ | Q_f)`` over the candidate
flows the attacker can launch; multi-probe selection maximises
``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` over candidate subsets, either
exhaustively or greedily.  Because each probe perturbs the cache, the
joint outcome distribution depends on probe *order*; following the
paper's non-adaptive formulation we evaluate each chosen set in a fixed
canonical order (ascending flow index).

Scoring runs on the batched, cached
:class:`~repro.core.engine.ProbeScoringEngine`.  The original per-candidate
dict-walk loops are test oracles (``tests/oracles/probes.py``); the
differential suite holds the engine to the same probes, with gains
within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference


@dataclass(frozen=True)
class ProbeChoice:
    """A selected probe set with its predicted information gain."""

    probes: Tuple[int, ...]
    gain: float


def best_single_probe(
    inference: ReconInference,
    *,
    candidates: Optional[Sequence[int]] = None,
) -> ProbeChoice:
    """The single probe flow with the largest information gain.

    ``candidates`` defaults to every flow in the universe; restrict it to
    model an attacker who cannot launch certain flows (e.g. the
    constrained attacker of Figure 7, who cannot probe the target).
    Ties break toward the lowest flow index for determinism.  Scoring
    runs on the batched engine.
    """
    probes, gain = ProbeScoringEngine(inference).best_single(candidates)
    return ProbeChoice(probes=probes, gain=gain)


def best_probe_set(
    inference: ReconInference,
    n_probes: int,
    *,
    candidates: Optional[Sequence[int]] = None,
    method: str = "exhaustive",
) -> ProbeChoice:
    """The best set of ``n_probes`` probes by joint information gain.

    ``method="exhaustive"`` scores every size-``n_probes`` combination;
    ``method="greedy"`` grows the set one probe at a time (standard
    submodular-style heuristic, much cheaper for large candidate pools).
    Scoring runs on the batched engine.
    """
    probes, gain = ProbeScoringEngine(inference).best_set(
        n_probes, candidates, method=method
    )
    return ProbeChoice(probes=probes, gain=gain)


def rank_probes(inference: ReconInference) -> Tuple[ProbeChoice, ...]:
    """Every flow as a single probe, ranked by information gain (desc)."""
    flows = list(range(inference.model.context.n_flows))
    gains = ProbeScoringEngine(inference).score_tails((), flows)
    scored = [
        ProbeChoice(probes=(flow,), gain=float(gain))
        for flow, gain in zip(flows, gains)
    ]
    return tuple(sorted(scored, key=lambda c: (-c.gain, c.probes)))
