"""Fidelity check: packet-level trials vs fast flow-table replay.

The figure benchmarks default to the table-level trial runner for
speed; this benchmark validates that substitution by running identical
seeded trials through both runners at paper scale and reporting the
probe-outcome and ground-truth agreement rate (it should be ~100%: the
4 ms hit/miss gap cannot be flipped by sub-millisecond latency noise,
only by rare boundary effects such as a rule expiring between the two
runners' slightly different probe timestamps).
"""

from benchmarks.conftest import experiment_params
from repro.experiments.harness import ConfigHarness
from repro.experiments.params import bench_scale
from repro.experiments.report import format_table
from repro.experiments.trials import run_trial
from repro.flows.config import ConfigGenerator


def test_bench_mode_agreement(benchmark, print_section):
    params = experiment_params(seed=31)
    n_trials = max(10, int(100 * bench_scale()))

    def run():
        generator = ConfigGenerator(params.config, seed=31)
        harness = ConfigHarness(generator.sample(), params, rng=generator.rng)
        attackers = harness.attackers()
        agree_truth = agree_outcomes = 0
        for seed in range(n_trials):
            network = run_trial(
                harness.config, attackers, seed=seed, mode="network"
            )
            table = run_trial(harness.config, attackers, seed=seed, mode="table")
            agree_truth += network.ground_truth == table.ground_truth
            agree_outcomes += all(
                network.outcomes[name] == table.outcomes[name]
                for name in ("naive", "model", "constrained")
            )
        return agree_truth / n_trials, agree_outcomes / n_trials

    truth_rate, outcome_rate = benchmark.pedantic(run, rounds=1, iterations=1)
    print_section(
        format_table(
            ["agreement", "rate"],
            [
                ["ground truth", truth_rate],
                ["all probe outcomes", outcome_rate],
            ],
            title=(
                f"Network-mode vs table-mode agreement over {n_trials} "
                "seeded trials"
            ),
        )
    )
    # Exact by construction: k/n with k == n.
    assert truth_rate == 1.0  # repro: noqa[PY001]
    assert outcome_rate >= 0.9
