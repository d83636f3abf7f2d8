"""Benchmarks for the probe-scoring engine vs the serial selection loop.

The engine's cached prefix distributions and batched matrix scoring
replace the per-candidate dict walks of the original implementation.
On the 10-flow / 8-rule universe below, exhaustive 2-probe selection
must come out at least 2x faster than the pre-engine serial loop (the
acceptance floor; in practice the gap is much larger because the serial
path re-walks every prefix once per tail).
"""

from __future__ import annotations

import time

import pytest

from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse
from tests.oracles.probes import best_probe_set_serial

N_FLOWS = 10
CACHE_SIZE = 4
TARGET = 0
WINDOW_STEPS = 40
DELTA = 0.1

#: Eight rules over ten flows: overlapping pairs plus two singletons.
RULE_SPECS = [
    ({0, 1}, 12),
    ({1, 2}, 9),
    ({3, 4}, 15),
    ({4, 5}, 10),
    ({6, 7}, 8),
    ({7, 8}, 14),
    ({9}, 11),
    ({0, 9}, 7),
]

RATES = [0.6, 1.1, 0.4, 0.9, 0.5, 1.3, 0.7, 0.3, 1.0, 0.8]


@pytest.fixture(scope="module")
def model():
    flows = tuple(FlowId(src=i, dst=999) for i in range(N_FLOWS))
    universe = FlowUniverse(flows, tuple(RATES))
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=frozenset(covered),
            timeout_steps=timeout,
            priority=100 - rank,
        )
        for rank, (covered, timeout) in enumerate(RULE_SPECS)
    ]
    return CompactModel(Policy(rules), universe, DELTA, CACHE_SIZE)


def _fresh_inference(model):
    return ReconInference(model, TARGET, WINDOW_STEPS)


def test_bench_serial_exhaustive_pair(benchmark, model):
    """Pre-engine baseline: serial dict-walk over all 45 pairs."""

    def run():
        return best_probe_set_serial(_fresh_inference(model), 2)

    choice = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(choice.probes) == 2


def test_bench_engine_exhaustive_pair(benchmark, model):
    """Engine path: shared prefix cache + batched matrix scoring."""

    def run():
        return best_probe_set(_fresh_inference(model), 2)

    choice = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(choice.probes) == 2


def test_engine_speedup_at_least_2x(model):
    """Acceptance floor: engine >= 2x faster than the serial loop.

    Both paths pay for a fresh :class:`ReconInference` (window evolution
    included) so the comparison is end-to-end per configuration, exactly
    what the experiment harness pays per trial.
    """
    # Warm-up outside the timed region (imports, sparse builds, JIT-free
    # but cache-sensitive numpy paths).
    best_probe_set_serial(_fresh_inference(model), 2)
    best_probe_set(_fresh_inference(model), 2)

    serial_best = float("inf")
    engine_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        serial_choice = best_probe_set_serial(_fresh_inference(model), 2)
        serial_best = min(serial_best, time.perf_counter() - start)

        start = time.perf_counter()
        engine_choice = best_probe_set(_fresh_inference(model), 2)
        engine_best = min(engine_best, time.perf_counter() - start)

    assert engine_choice.probes == serial_choice.probes
    assert engine_choice.gain == pytest.approx(serial_choice.gain, abs=1e-12)
    speedup = serial_best / engine_best
    assert speedup >= 2.0, (
        f"engine {engine_best:.4f}s vs serial {serial_best:.4f}s "
        f"-> only {speedup:.2f}x"
    )


def test_engine_reuse_amortises_cache(model):
    """A second selection on a warm engine does no new prefix work."""
    inference = _fresh_inference(model)
    engine = ProbeScoringEngine(inference)
    engine.best_set(2)
    misses_after_first = engine.stats.cache_misses
    engine.best_set(2)
    assert engine.stats.cache_misses == misses_after_first
    assert engine.stats.cache_hits > 0
