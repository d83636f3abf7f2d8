"""Ablation: non-stationary traffic vs the stationary Markov model.

The model assumes homogeneous Poisson arrivals; real networks breathe
(diurnal load, bursts).  Here the background traffic follows a
piecewise-constant rate profile while the attacker models the network
with the *time-averaged* rates -- the best a long-observing attacker
could estimate.  We measure how much the model attacker's accuracy
degrades as the profile's burstiness grows, against the naive attacker
who never used the rates anyway.
"""

import numpy as np

from benchmarks.conftest import experiment_params
from repro.core.attacker import NaiveAttacker
from repro.experiments.harness import sample_screened_harnesses
from repro.experiments.params import bench_scale
from repro.experiments.report import format_table
from repro.experiments.trials import _TableWorld
from repro.flows.arrival import (
    PiecewiseRateProfile,
    occurred_in_window,
    sample_schedule_with_profile,
)

#: (label, factors) -- 3-phase profiles over the 15 s window with unit
#: time average, increasing burstiness.
PROFILES = (
    ("stationary", (1.0, 1.0, 1.0)),
    ("mild diurnal", (0.7, 1.3, 1.0)),
    ("strong diurnal", (0.4, 1.9, 0.7)),
    ("bursty", (0.1, 2.8, 0.1)),
)


def test_bench_ablation_nonstationary(benchmark, print_section):
    params = experiment_params(seed=808).with_absence_range(0.5, 0.95)
    n_trials = max(60, int(200 * bench_scale()))

    def run():
        harness = sample_screened_harnesses(params, 1)[0]
        config = harness.config
        window = config.window_seconds
        breakpoints = [0.0, window / 3, 2 * window / 3]
        rows = []
        for label, factors in PROFILES:
            profile = PiecewiseRateProfile(breakpoints, list(factors))
            mean_factor = profile.mean_factor(window)
            rng = np.random.default_rng(99)
            attackers = {
                "naive": NaiveAttacker(config.target_flow),
                "model": harness.model_attacker,
            }
            correct = {name: 0 for name in attackers}
            for _ in range(n_trials):
                schedule = sample_schedule_with_profile(
                    config.universe, profile, window, rng
                )
                truth = int(
                    occurred_in_window(
                        schedule, config.target_flow, 0.0, window
                    )
                )
                for name, attacker in attackers.items():
                    world = _TableWorld(config)
                    for arrival in schedule:
                        world.arrival(arrival.flow_index, arrival.time)
                    bits = tuple(
                        world.probe(config.universe.flows[flow])
                        for flow in attacker.plan()
                    )
                    if attacker.decide(bits) == truth:
                        correct[name] += 1
            rows.append(
                [
                    label,
                    mean_factor,
                    correct["model"] / n_trials,
                    correct["naive"] / n_trials,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print_section(
        format_table(
            ["traffic profile", "mean factor", "model acc", "naive acc"],
            rows,
            title=(
                "Non-stationary traffic vs the stationary attacker model "
                f"({n_trials} trials per row; attacker plans on averaged "
                "rates)"
            ),
        )
    )

    # Shape: profiles average to the modelled load (sanity), accuracies
    # stay valid probabilities, and the stationary row is the reference.
    for row in rows:
        assert abs(row[1] - 1.0) < 1e-9
        assert 0.0 <= row[2] <= 1.0
        assert 0.0 <= row[3] <= 1.0