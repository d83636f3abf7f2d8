"""Parallel trial fan-out: identical numbers, less wall time.

``ConfigHarness.run_trials(trial_jobs=N)`` promises bit-identical
results for every ``N`` (see EXPERIMENTS.md); this benchmark pins the
other half of the contract -- that on a multi-core box the fan-out
actually pays.  Serial and parallel runs start from freshly sampled
(identical) harnesses, so both trial loops consume the same seed
stream and must produce the same accuracies exactly.

Skipped on single-core machines (the CI floor), where a fork pool can
only add overhead.
"""

from __future__ import annotations

import os
import time

import pytest

from benchmarks.conftest import experiment_params
from repro.experiments.harness import ConfigHarness
from repro.experiments.report import format_table

N_TRIALS = 240
JOBS = min(4, os.cpu_count() or 1)
MIN_SPEEDUP = 1.5


def _timed_run(trial_jobs):
    """Trial-loop wall time for a fresh (identically seeded) harness."""
    harness = ConfigHarness.sample(
        experiment_params(seed=2017, n_trials=N_TRIALS)
    )
    start = time.perf_counter()
    result = harness.run_trials(trial_jobs=trial_jobs)
    return result, time.perf_counter() - start


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2,
    reason="parallel speedup needs >= 2 cores",
)
def test_bench_trials_parallel(benchmark, print_section):
    serial_result, serial_seconds = _timed_run(1)

    parallel_result, parallel_seconds = benchmark.pedantic(
        lambda: _timed_run(JOBS), rounds=1, iterations=1
    )
    speedup = serial_seconds / parallel_seconds

    print_section(
        format_table(
            ["run", "seconds"],
            [
                [f"serial ({N_TRIALS} trials)", serial_seconds],
                [f"parallel (trial_jobs={JOBS})", parallel_seconds],
                ["speedup", speedup],
            ],
            title="Trial fan-out wall time",
        )
    )

    # Determinism first: the fan-out must not change a single number.
    assert parallel_result.accuracies == serial_result.accuracies
    assert parallel_result.pool_fallbacks == 0, "pool fell back to serial"
    assert parallel_result.trials == N_TRIALS
    assert speedup >= MIN_SPEEDUP, (
        f"trial_jobs={JOBS} gave {speedup:.2f}x over serial "
        f"({serial_seconds:.2f}s -> {parallel_seconds:.2f}s), "
        f"expected >= {MIN_SPEEDUP}x"
    )
