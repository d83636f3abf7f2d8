"""Optimal probe selection (Section V).

Single-probe selection maximises ``IG(X̂ | Q_f)`` over the candidate
flows the attacker can launch; multi-probe selection maximises
``IG(X̂ | Q_{f_1}, ..., Q_{f_m})`` over candidate subsets, either
exhaustively or greedily.  Because each probe perturbs the cache, the
joint outcome distribution depends on probe *order*; following the
paper's non-adaptive formulation we evaluate each chosen set in a fixed
canonical order (ascending flow index).

Two implementations coexist:

* the **engine path** (default) -- the batched, cached, optionally
  parallel :class:`~repro.core.engine.ProbeScoringEngine`; pass
  ``n_jobs > 1`` to fan candidate scoring out over processes;
* the **serial reference** -- ``best_single_probe_serial`` /
  ``best_probe_set_serial``, the original dict-walk loops, kept as the
  ground truth the differential test suite checks the engine against.

Both return identical probes; gains agree to well below 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence, Tuple

from repro.core.engine import ProbeScoringEngine, ScoringStats
from repro.core.inference import ReconInference


@dataclass(frozen=True)
class ProbeChoice:
    """A selected probe set with its predicted information gain."""

    probes: Tuple[int, ...]
    gain: float
    #: Engine instrumentation for the selection run (``None`` on the
    #: serial reference path).  Excluded from equality so choices
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
    scored = [
        ProbeChoice(probes=(int(flow),), gain=inference.information_gain((flow,)))
        for flow in candidates
    ]
    return tuple(sorted(scored, key=lambda c: (-c.gain, c.probes)))


# ----------------------------------------------------------------------
# Serial reference implementations (differential-test ground truth)
# ----------------------------------------------------------------------
def best_single_probe_serial(
    inference: ReconInference,
    candidates: Optional[Sequence[int]] = None,
) -> ProbeChoice:
    """Original per-flow dict-walk loop of :func:`best_single_probe`."""
    if candidates is None:
        candidates = range(inference.model.context.n_flows)
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate probes")
    best_flow = None
    best_gain = -1.0
    for flow in candidates:
        gain = inference.information_gain((flow,))
        if gain > best_gain + 1e-15:
            best_flow = flow
            best_gain = gain
    assert best_flow is not None
    return ProbeChoice(probes=(best_flow,), gain=max(best_gain, 0.0))


def best_probe_set_serial(
    inference: ReconInference,
    n_probes: int,
    candidates: Optional[Sequence[int]] = None,
    method: str = "exhaustive",
) -> ProbeChoice:
    """Original per-combination loop of :func:`best_probe_set`."""
    if n_probes < 1:
        raise ValueError("n_probes must be >= 1")
    if candidates is None:
        candidates = range(inference.model.context.n_flows)
    candidates = sorted(set(int(f) for f in candidates))
    if len(candidates) < n_probes:
        raise ValueError(
            f"need {n_probes} candidates, have {len(candidates)}"
        )
    if n_probes == 1:
        return best_single_probe_serial(inference, candidates)

    if method == "exhaustive":
        best: Optional[ProbeChoice] = None
        for combo in combinations(candidates, n_probes):
            gain = inference.information_gain(combo)
            if best is None or gain > best.gain + 1e-15:
                best = ProbeChoice(probes=combo, gain=gain)
        assert best is not None
        return best

    if method == "greedy":
        chosen: Tuple[int, ...] = ()
        gain = 0.0
        remaining = list(candidates)
        for _ in range(n_probes):
            best_flow = None
            best_gain = -1.0
            for flow in remaining:
                probes = tuple(sorted(chosen + (flow,)))
                candidate_gain = inference.information_gain(probes)
                if candidate_gain > best_gain + 1e-15:
                    best_flow = flow
                    best_gain = candidate_gain
            assert best_flow is not None
            chosen = tuple(sorted(chosen + (best_flow,)))
            remaining.remove(best_flow)
            gain = best_gain
        return ProbeChoice(probes=chosen, gain=gain)

    raise ValueError(f"unknown selection method: {method!r}")
