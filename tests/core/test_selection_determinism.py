"""Determinism regression tests for probe selection.

Tie-breaking must be stable: repeated runs, runs inside a pool worker,
and engine-vs-serial paths all pick the same probes with the same
gains.  The engine guarantees this by scoring in fixed-size blocks
(shapes independent of the caller) and always resolving the argmax in
a single scan over the canonical candidate order.
"""

from __future__ import annotations

import os

import pytest

from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set, best_single_probe
from repro.obs import Instrumentation, use_instrumentation
from repro.parallel import ForkPool
from tests.conftest import make_policy, make_universe
from tests.test_parallel_primitive import hang_guard


@pytest.fixture
def symmetric_inference():
    """Two interchangeable flows -> exact gain ties to break."""
    universe = make_universe([0.5, 0.5, 1.0])
    policy = make_policy([({0}, 5), ({1}, 5), ({2}, 7)])
    model = CompactModel(policy, universe, 0.05, 2)
    return ReconInference(model, target_flow=2, window_steps=10)


@pytest.fixture
def generic_inference():
    universe = make_universe([0.3, 0.9, 0.5, 1.1])
    policy = make_policy([({0, 1}, 6), ({2}, 4), ({1, 3}, 8)])
    model = CompactModel(policy, universe, 0.05, 2)
    return ReconInference(model, target_flow=1, window_steps=12)


class TestRepeatedRuns:
    def test_single_probe_stable(self, generic_inference):
        first = best_single_probe(generic_inference)
        for _ in range(3):
            again = best_single_probe(generic_inference)
            assert again.probes == first.probes
            assert again.gain == first.gain

    def test_probe_set_stable(self, generic_inference):
        for method in ("exhaustive", "greedy"):
            first = best_probe_set(generic_inference, 2, method=method)
            for _ in range(3):
                again = best_probe_set(generic_inference, 2, method=method)
                assert again.probes == first.probes
                assert again.gain == first.gain


class TestTieBreaking:
    def test_symmetric_flows_pick_first(self, symmetric_inference):
        """Flows 0 and 1 are interchangeable; the scan keeps the first."""
        choice = best_single_probe(symmetric_inference, candidates=[0, 1])
        assert choice.probes == (0,)

    def test_candidate_order_is_tie_break_order(self, symmetric_inference):
        """best_single_probe honours the *given* candidate order."""
        forward = best_single_probe(symmetric_inference, candidates=[0, 1])
        reverse = best_single_probe(symmetric_inference, candidates=[1, 0])
        assert forward.probes == (0,)
        assert reverse.probes == (1,)
        assert forward.gain == pytest.approx(reverse.gain, abs=1e-12)

    def test_probe_set_canonicalizes_candidates(self, symmetric_inference):
        """best_probe_set sorts candidates, so order does not matter."""
        forward = best_probe_set(symmetric_inference, 2, candidates=[0, 1, 2])
        shuffled = best_probe_set(symmetric_inference, 2, candidates=[2, 0, 1])
        assert forward.probes == shuffled.probes
        assert forward.gain == shuffled.gain


#: The inference's work counters.
INFERENCE_COUNTERS = (
    "engine.evolutions",
    "engine.cache.hits",
    "engine.cache.misses",
    "engine.cache.prefix_extensions",
)

#: The probe tails every scoring call below scores.
TAILS = (0, 1, 2, 3)


def _counts(backend):
    counters = backend.metrics.to_document()["counters"]
    return tuple(counters.get(name, 0) for name in INFERENCE_COUNTERS)


def _counts_after_scoring(inference, _item):
    """Fit a fresh inference and score on it; its registry counts."""
    backend = Instrumentation()
    with use_instrumentation(backend):
        engine = ProbeScoringEngine(
            ReconInference(
                inference.model, inference.target_flow, inference.window_steps
            )
        )
        engine.score_tails((1,), TAILS)
    return _counts(backend)


def _score_inherited(inference, prefix):
    """Score on the inference the worker inherited; the worker's pid."""
    ProbeScoringEngine(inference).score_tails(prefix, TAILS)
    return os.getpid()


class TestWorker:
    def test_engine_inside_a_worker_counts_like_the_parent(
        self, generic_inference
    ):
        # A screening worker selects probes in its own process; the
        # engine's counters there must equal the parent's.
        expected = _counts_after_scoring(generic_inference, None)
        with ForkPool(2, generic_inference, name="test") as pool, hang_guard():
            in_workers = pool.map(_counts_after_scoring, [1, 2])
        assert pool.fallbacks == 0
        assert in_workers == [expected, expected]

    def test_inherited_inference_counts_into_the_worker_registry(
        self, generic_inference
    ):
        # The inference was built before the pool forked, so it counts
        # into whatever backend is current when it works: in a worker,
        # the chunk's fresh backend, which the pool merges back.  Each
        # worker starts from the parent's caches as they were at fork
        # and keeps them across its items, so the expected counts replay
        # each worker's items, in order, on one fresh inference.
        model = generic_inference.model
        target = generic_inference.target_flow
        window = generic_inference.window_steps
        prefixes = [(1,), (2,)]
        parent = Instrumentation()
        with use_instrumentation(parent), hang_guard():
            with ForkPool(2, generic_inference, name="test") as pool:
                pids = pool.map(_score_inherited, prefixes)
        assert pool.fallbacks == 0
        expected = [0] * len(INFERENCE_COUNTERS)
        for pid in dict.fromkeys(pids):
            inference = ReconInference(model, target, window)
            serial = Instrumentation()
            with use_instrumentation(serial):
                for prefix, worker in zip(prefixes, pids):
                    if worker == pid:
                        _score_inherited(inference, prefix)
            expected = [a + b for a, b in zip(expected, _counts(serial))]
        assert list(_counts(parent)) == expected
        assert parent.metrics.counter("engine.cache.misses").value > 0
