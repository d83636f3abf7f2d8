"""Ablation: recency-estimator fidelity vs cost.

DESIGN.md calls out the eviction/timeout estimation as the compact
model's approximation point: the paper's exact sum over injective
recency functions is exponential.  This benchmark quantifies, on an
instance small enough for exact enumeration, how close the Monte Carlo
sampler and the closed-form independence approximation come -- and what
each costs.  Production runs only the approximation, in bulk; the
per-state estimators timed here, and the per-state model that can run
on them, are test oracles (tests/oracles/).
"""

import time

from repro.core.context import ModelContext
from repro.core.masks import mask_from_indices
from repro.experiments.report import format_table
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse

from tests.oracles.perstate import PerStateCompactModel
from tests.oracles.recency import (
    ExactRecencyEstimator,
    IndependentRecencyEstimator,
    MonteCarloRecencyEstimator,
)


def _context():
    """Three overlapping rules, timeouts ~8-12 steps, cache 3 (full)."""
    policy = Policy(
        [
            ModelRule(0, "r0", frozenset({0}), 8, 30),
            ModelRule(1, "r1", frozenset({0, 1}), 12, 20),
            ModelRule(2, "r2", frozenset({2, 3}), 10, 10),
        ]
    )
    universe = FlowUniverse(
        tuple(FlowId(src=i, dst=99) for i in range(4)),
        (0.35, 0.5, 0.25, 0.4),
    )
    return ModelContext(policy, universe, delta=0.25, cache_size=3)


def test_bench_ablation_estimators(benchmark, print_section):
    context = _context()
    state = mask_from_indices([0, 1, 2])

    def run_all():
        results = {}
        for name, estimator in (
            ("exact", ExactRecencyEstimator(context, max_assignments=10**7)),
            ("montecarlo", MonteCarloRecencyEstimator(context, 4000, seed=7)),
            ("independent", IndependentRecencyEstimator(context)),
        ):
            start = time.perf_counter()
            stats = estimator.stats(state)
            results[name] = (stats, time.perf_counter() - start)
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    exact_stats, _ = results["exact"]
    rows = []
    for name, (stats, elapsed) in results.items():
        eviction_error = max(
            abs(stats.eviction[rule] - exact_stats.eviction[rule])
            for rule in exact_stats.eviction
        )
        hazard_error = max(
            abs(
                stats.timeout_hazards[rule]
                - exact_stats.timeout_hazards[rule]
            )
            for rule in exact_stats.timeout_hazards
        )
        rows.append([name, elapsed * 1e3, eviction_error, hazard_error])
    print_section(
        format_table(
            ["estimator", "time (ms)", "max |evict err|", "max |hazard err|"],
            rows,
            title=(
                "Recency-estimator ablation (3 cached rules, "
                "t = 8/12/10 steps; errors vs exact enumeration)"
            ),
        )
    )

    mc_stats, _ = results["montecarlo"]
    indep_stats, indep_time = results["independent"]
    _, exact_time = results["exact"]
    for rule in exact_stats.eviction:
        assert abs(
            mc_stats.eviction[rule] - exact_stats.eviction[rule]
        ) < 0.05
        assert abs(
            indep_stats.eviction[rule] - exact_stats.eviction[rule]
        ) < 0.2
    # The approximation must be dramatically cheaper than enumeration.
    assert indep_time < exact_time


def test_bench_estimator_effect_on_attack(benchmark, print_section):
    """Same probe choice under independent vs Monte Carlo estimators."""
    from repro.core.compact_model import CompactModel
    from repro.core.inference import ReconInference
    from repro.core.selection import rank_probes

    context = _context()
    shape = (
        context.policy, context.universe, context.delta, context.cache_size
    )

    def compare():
        choices = {}
        for name in ("independent", "montecarlo"):
            if name == "montecarlo":
                model = PerStateCompactModel(
                    *shape,
                    estimator=MonteCarloRecencyEstimator(
                        context, n_samples=800, seed=3
                    ),
                )
            else:
                model = CompactModel(*shape)
            inference = ReconInference(model, target_flow=0, window_steps=60)
            choices[name] = rank_probes(inference)
        return choices

    choices = benchmark.pedantic(compare, rounds=1, iterations=1)
    rows = [
        [
            name,
            ranked[0].probes[0],
            ranked[0].gain,
        ]
        for name, ranked in choices.items()
    ]
    print_section(
        format_table(
            ["estimator", "optimal probe", "gain (bits)"],
            rows,
            title="Estimator choice barely moves probe selection",
        )
    )
    assert (
        choices["independent"][0].probes == choices["montecarlo"][0].probes
    )
