"""Micro-benchmarks of the attack pipeline's computational stages.

These are conventional pytest-benchmark measurements (multiple rounds)
of the costs a real attacker pays per network configuration: building
the compact model's transition matrix, evolving the state distribution
over the detection window (Eqn. 8), and selecting the optimal probe.
The paper ran these on a 2.3 GHz / 128 GB server in MATLAB + C++; the
reproduction runs them in seconds on one laptop core.
"""

import pytest

from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe
from repro.flows.config import ConfigGenerator, ConfigParams


@pytest.fixture(scope="module")
def config():
    return ConfigGenerator(ConfigParams(), seed=2017).sample()


@pytest.fixture(scope="module")
def model(config):
    return CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )


@pytest.fixture(scope="module")
def inference(config, model):
    return ReconInference(model, config.target_flow, config.window_steps)


def test_bench_transition_matrix_build(benchmark, config):
    """Build the transition matrix from scratch.

    The seed-2017 configuration's 12 rules, cache 6, give the paper's
    2510 subsets; the model keeps only those of its installable rules.
    """

    def build():
        fresh = CompactModel(
            config.policy, config.universe, config.delta, config.cache_size
        )
        return fresh.transition_matrix()

    matrix = benchmark(build)
    # 11 of the 12 rules are installable: sum_{k<=6} C(11, k) states.
    assert matrix.shape[0] == 1486


def test_bench_window_evolution(benchmark, config, model):
    """Evolve the cache distribution over T = 1500 steps (Eqn. 8)."""
    matrix = model.transition_matrix()

    from repro.core.chain import evolve

    start = model.initial_distribution()
    dist = benchmark(evolve, start, matrix, config.window_steps)
    assert dist.sum() == pytest.approx(1.0)


def test_bench_probe_selection(benchmark, config, model):
    """Full single-probe selection over all 16 candidate flows."""

    def select():
        inference = ReconInference(
            model, config.target_flow, config.window_steps
        )
        return best_single_probe(inference)

    choice = benchmark.pedantic(select, rounds=3, iterations=1)
    assert 0 <= choice.probes[0] < 16


def test_bench_outcome_table(benchmark, inference):
    """Joint outcome distribution for a 2-probe plan (Section V-B)."""

    def build():
        inference._table_cache.clear()
        inference._prefix_cache.clear()
        return inference.outcome_table((0, 1))

    table = benchmark(build)
    assert sum(table.outcome_probs.values()) == pytest.approx(1.0)
