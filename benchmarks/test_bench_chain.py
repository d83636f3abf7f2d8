"""The exact float64 chain: native sliced-ELL kernel against the scipy loop.

One pinned chain, the one every ``serve`` session of scenario 2017
computes: T = 1500 steps of the target-excluded chain (Section V-A) of
that scenario's 1,486-state compact model.  The benchmark times it on
the native kernel (:func:`repro.core.cnative.chain_f64`, each SIMD build
the host runs) and on scipy's ``csr_matvec`` loop, asserts the results
are bit-identical, and prints the times, the speed-up and
:func:`~repro.core.cnative.simd_level`.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from scipy import sparse

from repro.apispec import JobSpec
from repro.core import cnative
from repro.core.chain import scipy_chain
from repro.core.compact_model import CompactModel
from repro.experiments.report import format_table
from repro.flows.config import ConfigGenerator
from repro.service.sessions import eligible_targets

SCENARIO_SEED = 2017

#: Timed repeats per implementation; the best one is reported.
REPEATS = 5


def _best_of(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


# The fixture re-lays-out a matrix the model already validated; the
# transpose is not stochastic, so it is not validated again.
@pytest.fixture(scope="module")
def excluded_chain():  # repro: noqa[STO001]
    """``(A^T CSR, I_0, T)`` of scenario 2017's first target-excluded chain."""
    spec = JobSpec(experiment="recon", seed=SCENARIO_SEED, n_targets=16)
    scenario = ConfigGenerator(spec.config, seed=SCENARIO_SEED).sample()
    model = CompactModel(
        scenario.policy, scenario.universe, scenario.delta, scenario.cache_size
    )
    target = eligible_targets(scenario, spec)[0]
    transposed = sparse.csr_matrix(model.transition_matrix((target,)).T)
    return transposed, model.initial_distribution(), scenario.window_steps


def test_bench_exact_chain(benchmark, print_section, excluded_chain):
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")
    transposed, start, steps = excluded_chain
    assert (transposed.shape[0], steps) == (1486, 1500)

    started = time.perf_counter()
    layout = cnative.sell8_layout(
        transposed.indptr, transposed.indices, transposed.data
    )
    layout_s = time.perf_counter() - started
    expected = scipy_chain(transposed, start.copy(), steps)
    scipy_s = _best_of(lambda: scipy_chain(transposed, start.copy(), steps))

    levels = ("scalar", "avx512") if cnative.simd_level() == "avx512" else ("scalar",)
    rows = [["scipy csr_matvec loop", scipy_s, 1.0]]
    for level in levels:
        result = cnative._chain_f64(level, layout, start, steps)
        assert np.array_equal(result, expected), level
        seconds = _best_of(lambda: cnative._chain_f64(level, layout, start, steps))
        rows.append([f"native {level}", seconds, scipy_s / seconds])
    benchmark.pedantic(
        lambda: cnative.chain_f64(layout, start, steps), rounds=1, iterations=1
    )

    padding = layout.cols.size / transposed.nnz - 1.0
    print_section(
        format_table(
            ["chain (T=1500, 1486 states)", "seconds", "speed-up"],
            rows,
            title=(
                f"Exact float64 chain, simd_level={cnative.simd_level()}, "
                f"layout build {layout_s * 1e3:.2f} ms, padding {padding:.2%}"
            ),
        )
    )
