"""Ablation: cache capacity and the side channel.

The paper fixes the rule cache at n = 6 of 12 rules.  Capacity controls
the channel twice over: a tiny cache evicts aggressively (evidence is
destroyed before the attacker probes, and the eviction estimator works
hardest), while a cache large enough to hold every rule never evicts
(Section III-B3's false-negative source disappears).  This benchmark
sweeps n for one configuration, reporting the model's predicted cache
occupancy, the optimal probe's information gain, and measured accuracy.
"""

import numpy as np

from repro.core.attacker import ModelAttacker, NaiveAttacker
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.selection import best_single_probe
from repro.experiments.params import bench_scale
from repro.experiments.report import format_table
from repro.experiments.trials import run_trial
from repro.flows.config import ConfigGenerator, ConfigParams

CACHE_SIZES = (2, 4, 6, 9, 12)


def test_bench_ablation_cachesize(benchmark, print_section):
    n_trials = max(60, int(200 * bench_scale()))

    def run():
        rows = []
        for cache_size in CACHE_SIZES:
            params = ConfigParams(
                cache_size=cache_size, absence_range=(0.5, 0.95)
            )
            config = ConfigGenerator(params, seed=321).sample()
            model = CompactModel(
                config.policy,
                config.universe,
                config.delta,
                config.cache_size,
            )
            inference = ReconInference(
                model, config.target_flow, config.window_steps
            )
            occupancy = model.occupancy_distribution(inference.dist_full)
            expected_occupancy = float(
                sum(k * p for k, p in enumerate(occupancy))
            )
            choice = best_single_probe(inference)

            attackers = (
                NaiveAttacker(config.target_flow),
                ModelAttacker(inference),
            )
            rng = np.random.default_rng(5)
            correct = {"naive": 0, "model": 0}
            for _ in range(n_trials):
                trial = run_trial(
                    config,
                    attackers,
                    seed=int(rng.integers(2**62)),
                    mode="table",
                )
                for name in correct:
                    correct[name] += trial.correct(name)
            rows.append(
                [
                    cache_size,
                    model.n_states,
                    expected_occupancy,
                    choice.gain,
                    correct["model"] / n_trials,
                    correct["naive"] / n_trials,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_section(
        format_table(
            [
                "cache n",
                "model states",
                "E[#cached] at T",
                "best IG (bits)",
                "model acc",
                "naive acc",
            ],
            rows,
            title=(
                "Cache-capacity ablation (12 rules; same seed across "
                f"rows; {n_trials} trials per row)"
            ),
        )
    )

    # Shape: the state space grows with n; occupancy is monotone
    # non-decreasing in capacity and never exceeds it.
    states = [row[1] for row in rows]
    assert states == sorted(states)
    occupancies = [row[2] for row in rows]
    for cache_size, occupancy in zip(CACHE_SIZES, occupancies):
        assert 0.0 <= occupancy <= cache_size
    # Monotone up to estimator tolerance: more capacity, more residents.
    for previous, current in zip(occupancies, occupancies[1:]):
        assert current >= previous - 0.05