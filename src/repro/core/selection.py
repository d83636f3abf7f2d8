"""Optimal probe selection (Section V).

Single-probe selection maximises ``IG(X̂ | Q_f)`` over the candidate
flows the attacker can launch; multi-probe selection maximises
``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` over candidate subsets, either
exhaustively or greedily.  Because each probe perturbs the cache, the
joint outcome distribution depends on probe *order*; following the
paper's non-adaptive formulation we evaluate each chosen set in a fixed
canonical order (ascending flow index).

Scoring runs on the batched, cached, optionally parallel
:class:`~repro.core.engine.ProbeScoringEngine`; pass ``n_jobs > 1`` to
fan candidate scoring out over processes.  The original per-candidate
dict-walk loops are test oracles (``tests/oracles/probes.py``); the
differential suite holds the engine to the same probes, with gains
within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from repro.core.engine import ProbeScoringEngine, ScoringStats
from repro.core.inference import ReconInference


@dataclass(frozen=True)
class ProbeChoice:
    """A selected probe set with its predicted information gain."""

    probes: Tuple[int, ...]
    gain: float
    #: Engine instrumentation for the selection run (``None`` where no
    #: engine ran).  Excluded from equality so choices
    #: compare by what was chosen, not how fast.
    stats: Optional[ScoringStats] = field(
        default=None, compare=False, repr=False
    )


def best_single_probe(
    inference: ReconInference,
    *,
    candidates: Optional[Sequence[int]] = None,
    n_jobs: int = 1,
    engine: Optional[ProbeScoringEngine] = None,
) -> ProbeChoice:
    """The single probe flow with the largest information gain.

    ``candidates`` defaults to every flow in the universe; restrict it to
    model an attacker who cannot launch certain flows (e.g. the
    constrained attacker of Figure 7, who cannot probe the target).
    Ties break toward the lowest flow index for determinism.  Scoring
    runs on the batched engine; pass ``n_jobs > 1`` for multiprocess
    fan-out or ``engine`` to reuse one across calls.
    """
    if engine is None:
        engine = ProbeScoringEngine(inference, n_jobs=n_jobs)
    probes, gain = engine.best_single(candidates)
    return ProbeChoice(probes=probes, gain=gain, stats=engine.stats)


def best_probe_set(
    inference: ReconInference,
    n_probes: int,
    *,
    candidates: Optional[Sequence[int]] = None,
    method: str = "exhaustive",
    n_jobs: int = 1,
    engine: Optional[ProbeScoringEngine] = None,
) -> ProbeChoice:
    """The best set of ``n_probes`` probes by joint information gain.

    ``method="exhaustive"`` scores every size-``n_probes`` combination;
    ``method="greedy"`` grows the set one probe at a time (standard
    submodular-style heuristic, much cheaper for large candidate pools).
    Scoring runs on the batched engine; pass ``n_jobs > 1`` for
    multiprocess fan-out or ``engine`` to reuse one across calls.
    """
    if engine is None:
        engine = ProbeScoringEngine(inference, n_jobs=n_jobs)
    probes, gain = engine.best_set(n_probes, candidates, method=method)
    return ProbeChoice(probes=probes, gain=gain, stats=engine.stats)


def rank_probes(
    inference: ReconInference,
    candidates: Optional[Sequence[int]] = None,
) -> Tuple[ProbeChoice, ...]:
    """All single-probe candidates ranked by information gain (desc)."""
    if candidates is None:
        candidates = range(inference.model.context.n_flows)
    flows = [int(flow) for flow in candidates]
    gains = ProbeScoringEngine(inference).score_tails((), flows)
    scored = [
        ProbeChoice(probes=(flow,), gain=float(gain))
        for flow, gain in zip(flows, gains)
    ]
    return tuple(sorted(scored, key=lambda c: (-c.gain, c.probes)))
