"""The scoring engine degrades to serial when the fork pool dies.

A pool that cannot start (here: the executor constructor raises) must
not take the experiment down: ``ProbeScoringEngine._map`` re-scores
the whole batch serially in the parent and counts the fallback, and
``conditional_gains`` does the same for the adaptive path.
Scoring is pure, so the fallback results are identical to what the
pool would have returned.  A worker killed mid-batch takes the same
path (``TestKilledWorker``), and pooled scoring reports the counters
its workers emit (``TestPooledCounters``).
"""

import os

import numpy as np
import pytest

import repro.core.engine as engine_mod
import repro.parallel as primitive
from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine, conditional_gains
from repro.core.inference import ReconInference, pruned
from repro.obs import Instrumentation, use_instrumentation
from repro.parallel import ForkPool

from tests.conftest import make_policy, make_universe
from tests.test_parallel_primitive import hang_guard


def _broken_executor(*args, **kwargs):
    """A process pool that always dies on creation."""
    raise BrokenPipeError("worker died during fork")


@pytest.fixture
def inference():
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5), ({1, 3}, 7)])
    universe = make_universe([0.3, 0.4, 0.5, 0.2])
    model = CompactModel(policy, universe, 0.25, cache_size=2)
    return ReconInference(model, target_flow=0, window_steps=20)


class TestEngineFallback:
    def test_broken_pool_falls_back_to_serial(self, inference, monkeypatch):
        serial = ProbeScoringEngine(
            ReconInference(
                inference.model, inference.target_flow, inference.window_steps
            ),
            n_jobs=1,
        )
        expected = serial.score_tails((), (0, 1, 2, 3))

        # Small blocks force >= 2 work items, so the pool branch (and
        # therefore the fallback) actually engages at this tiny size.
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(primitive, "ProcessPoolExecutor", _broken_executor)
        backend = Instrumentation()
        with use_instrumentation(backend):
            pooled = ProbeScoringEngine(inference, n_jobs=2)
            gains = pooled.score_tails((), (0, 1, 2, 3))
        np.testing.assert_allclose(gains, expected, atol=1e-12)
        assert pooled.stats.pool_fallbacks == 1
        assert backend.metrics.counter("engine.pool.fallbacks").value == 1

    def test_fallback_is_recorded_in_stats_rows(self, inference, monkeypatch):
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(primitive, "ProcessPoolExecutor", _broken_executor)
        engine = ProbeScoringEngine(inference, n_jobs=2)
        engine.score_tails((), (0, 1, 2, 3))
        rows = dict(engine.stats.rows())
        assert rows["pool fallbacks"] == 1

    def test_healthy_serial_path_never_counts_fallbacks(self, inference):
        engine = ProbeScoringEngine(inference, n_jobs=1)
        engine.score_tails((), (0, 1, 2, 3))
        assert engine.stats.pool_fallbacks == 0


class TestAdaptiveFallback:
    def test_batched_conditional_gains_falls_back(self, monkeypatch):
        policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
        universe = make_universe([0.3, 0.4, 0.5])
        model = CompactModel(policy, universe, 0.25, cache_size=2)
        inference = ReconInference(model, target_flow=0, window_steps=10)
        weights_full = pruned(inference.dist_full)
        weights_absent = pruned(inference.dist_absent)
        flows = (0, 1, 2)
        expected = conditional_gains(
            model, weights_full, weights_absent, flows, n_jobs=1
        )

        # Force multiple blocks so the pool branch engages, then break it.
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(primitive, "ProcessPoolExecutor", _broken_executor)
        backend = Instrumentation()
        with use_instrumentation(backend):
            gains = conditional_gains(
                model, weights_full, weights_absent, flows, n_jobs=2
            )
        np.testing.assert_allclose(gains, expected, atol=1e-12)
        assert backend.metrics.counter("engine.pool.fallbacks").value == 1


def _stats_after_scoring(inference, n_jobs):
    """Score on a fresh inference; the engine's counter stats."""
    engine = ProbeScoringEngine(
        ReconInference(
            inference.model, inference.target_flow, inference.window_steps
        ),
        n_jobs=n_jobs,
    )
    engine.score_tails((1,), (0, 1, 2, 3))
    stats = engine.stats
    return stats.evolutions, stats.cache_hits, stats.cache_misses


class TestKilledWorker:
    def test_worker_exit_mid_batch_falls_back(self, inference, monkeypatch):
        expected = ProbeScoringEngine(
            ReconInference(
                inference.model, inference.target_flow, inference.window_steps
            ),
            n_jobs=1,
        ).score_tails((), (0, 1, 2, 3))

        parent = os.getpid()
        score_block = engine_mod._score_block_impl

        def _die_in_worker(*args):
            if os.getpid() != parent:
                os._exit(1)
            return score_block(*args)

        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        monkeypatch.setattr(engine_mod, "_score_block_impl", _die_in_worker)
        backend = Instrumentation()
        with use_instrumentation(backend), hang_guard():
            pooled = ProbeScoringEngine(inference, n_jobs=2)
            gains = pooled.score_tails((), (0, 1, 2, 3))
        np.testing.assert_allclose(gains, expected, atol=1e-12)
        assert pooled.stats.pool_fallbacks == 1
        assert backend.metrics.counter("engine.pool.fallbacks").value == 1


class TestPooledCounters:
    def test_pooled_scoring_reports_worker_matvecs(
        self, inference, monkeypatch
    ):
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        backend = Instrumentation()
        with use_instrumentation(backend):
            engine = ProbeScoringEngine(inference, n_jobs=2)
            engine.score_tails((1,), (0, 1, 2, 3))
        assert engine.stats.pool_fallbacks == 0
        assert backend.metrics.counter("kernel.sparse.matvecs").value > 0

    def test_engine_inside_a_worker_counts_like_the_parent(
        self, inference, monkeypatch
    ):
        # Inside a ForkPool worker the engine's own map runs serially in
        # that worker; its counters must not be counted twice.
        monkeypatch.setattr(engine_mod, "SCORE_BLOCK", 2)
        expected = _stats_after_scoring(inference, 1)
        with ForkPool(2, inference, name="test") as pool, hang_guard():
            in_workers = pool.map(_stats_after_scoring, [1, 2])
        assert pool.fallbacks == 0
        assert in_workers == [expected, expected]
