"""One network-mode trial: a shared window forked per plan vs replicas.

``run_trial`` simulates the trial's detection window once and
forks the post-window network per distinct probe plan; the replica
oracle (``tests/oracles/trials.py``) replays the window once per probing
attacker.  This benchmark times both on the first simulator-proxy
configuration (``PROXY_SIM_SEEDS[0]``: 14 rules, cache 12) with the
standard three probing attackers, asserts they return equal results,
and prints the best time of each and the speed-up.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.test_bench_proxy import PROXY_SIM_SEEDS
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness
from repro.experiments.params import ExperimentParams
from repro.experiments.report import format_table
from repro.flows.config import ConfigParams

from tests.oracles import trials as oracle

#: Trial seeds timed per implementation; the best total is reported.
N_SEEDS = 10
REPEATS = 3


def _best_of(run, seeds) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        for seed in seeds:
            run(seed)
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_network_trial(benchmark, print_section):
    params = ExperimentParams(
        config=ConfigParams(n_rules=14, cache_size=12),
        seed=PROXY_SIM_SEEDS[0],
        trial_mode="network",
    )
    harness = ConfigHarness.sample(params)
    config = harness.config
    lineup = (
        harness.naive_attacker,
        harness.model_attacker,
        harness.constrained_attacker,
    )
    rng = np.random.default_rng(PROXY_SIM_SEEDS[0])
    seeds = [int(rng.integers(2**62)) for _ in range(N_SEEDS)]

    for seed in seeds:
        assert trials.run_trial(config, lineup, seed) == (
            oracle.run_network_trial(config, lineup, seed)
        )

    def forked(seed):
        return trials.run_trial(config, lineup, seed)

    def replicas(seed):
        return oracle.run_network_trial(config, lineup, seed)

    benchmark.pedantic(forked, args=(seeds[0],), rounds=5, iterations=1)
    forked_s = _best_of(forked, seeds) / N_SEEDS
    replica_s = _best_of(replicas, seeds) / N_SEEDS
    plans = {attacker.name: attacker.plan() for attacker in lineup}
    print_section(
        format_table(
            ["path", "ms per trial"],
            [
                ["one window, forked per plan", forked_s * 1e3],
                ["one replica per attacker (oracle)", replica_s * 1e3],
                ["speed-up", replica_s / forked_s],
            ],
            title=(
                f"Network trial, config seed {PROXY_SIM_SEEDS[0]}, "
                f"plans {plans}"
            ),
        )
    )
