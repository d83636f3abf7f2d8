"""Differential tests for the fast screen's layout and reachability.

:func:`repro.experiments.fastscreen.pair_layout` builds the float32
pair chain's layout from the model's sorted entries with the native
kernel (:func:`repro.core.cnative.entry_pair_layout`); without the
kernel the screen does not run (:func:`~repro.experiments.fastscreen.supports`).
A run's sum is ``np.add.reduceat``'s, ``a[0] + pairwise(a[1:])``, which
a left-to-right loop does not reproduce.  These tests pin, comparing
dtypes and bytes, the kernel against the numpy oracle
(:func:`tests.oracles.pairlayout.numpy_pair_layout`):

* on synthetic entries with runs of length 1, 7, 8, 9, 17 and 130, and
  a target with no entries;
* through :func:`~repro.experiments.fastscreen.pair_layout` on the
  hypothesis models of ``test_sparse_dense_diff``; in the no-kernel
  modes (``REPRO_NO_CKERNEL=1``, no gcc) the screen must be off.

They also pin :func:`~repro.experiments.fastscreen.reachable_states`,
a frontier search over the run-merged pattern, to the fixpoint it
replaced (:func:`_fixpoint_reach`, rescanning every entry each round),
on the fast-screen test models and 16 candidates sampled the way the
``screen`` benchmark samples them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import cnative
from repro.core.compact_model import CompactModel
from repro.experiments import fastscreen
from repro.experiments.params import VIABLE_FIG6_BINS, ExperimentParams
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation

from tests.conftest import make_policy, make_universe
from tests.core import test_sparse_dense_diff as dense
from tests.core.test_build_native_diff import MODES, kernel_mode
from tests.experiments.conftest import tiny_experiment_params
from tests.experiments.test_fastscreen import _StartedModel, sample_candidates
from tests.oracles.pairlayout import numpy_pair_layout


@pytest.fixture(scope="module")
def native():
    """Skip without the native kernel."""
    cnative._reset_for_tests()
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")


def _assert_same_layout(actual, expected) -> None:
    (layout, max_run, row_sum), (want, want_run, want_sum) = actual, expected
    assert layout.n == want.n
    for got, ref in zip(layout[1:], want[1:]):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()
    assert (max_run, row_sum) == (want_run, want_sum)


def _synthetic_entries(run_lengths, n, seed):
    """(row, col)-sorted entries whose runs have the given lengths."""
    rng = np.random.default_rng(seed)
    pairs = rng.choice(n * n, size=len(run_lengths), replace=False)
    pairs.sort()
    lengths = rng.permutation(np.asarray(run_lengths))
    rows = np.repeat(pairs // n, lengths).astype(np.int64)
    cols = np.repeat(pairs % n, lengths).astype(np.int64)
    probs = rng.random(rows.size) ** 3
    tags = rng.integers(-1, 4, size=rows.size).astype(np.int64)
    return rows, cols, probs, tags


@pytest.mark.parametrize("target", [0, 2, 7], ids=["t0", "t2", "no-entries"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_kernel_matches_numpy_on_synthetic_runs(native, target, seed):
    lengths = [1, 7, 8, 9, 17, 130] * 6 + [1] * 40 + [2, 3, 4, 5, 6]
    n = 29
    entries = _synthetic_entries(lengths, n, seed)
    assert set(lengths) <= set(
        np.diff(np.append(fastscreen.run_starts(*entries[:2]), entries[0].size))
    )
    _assert_same_layout(
        cnative.entry_pair_layout(*entries, target, n),
        numpy_pair_layout(entries, target, n),
    )


def test_unsorted_entries_are_refused(native):
    rows, cols, probs, tags = _synthetic_entries([1, 2, 3], 5, 0)
    with pytest.raises(ValueError, match="not \\(row, col\\)-sorted"):
        cnative.entry_pair_layout(rows[::-1], cols[::-1], probs, tags, 0, 5)
    with pytest.raises(ValueError, match="out of range"):
        cnative.entry_pair_layout(rows, cols, probs, tags, 0, 2)


@settings(max_examples=30, deadline=None)
@given(dense.model_specs())
def test_every_mode_matches_numpy_on_random_models(spec):
    model = dense._build(spec, "sparse")
    entries = model._sorted_entries()
    if len(entries[0]) == 0:
        return
    for mode in MODES:
        with kernel_mode(mode) as build:
            if build is None:
                continue
            params = tiny_experiment_params()
            assert fastscreen.supports(params) == (build == "native")
            if build != "native":
                continue
            for target in (0, dense.N_FLOWS - 1):
                expected = numpy_pair_layout(entries, target, model.n_states)
                expected = expected[:2] + (
                    expected[2] * (1.0 + model.n_states * fastscreen.U64),
                )
                _assert_same_layout(
                    fastscreen.pair_layout(model, target), expected
                )


def test_spans_inside_the_screen(native):
    config = sample_candidates(tiny_experiment_params(), 1)[0]
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    # Never certified, the chain runs the whole window; certified at
    # once, it stops one step past the first checkpoint (the step that
    # measures its drift).
    first = fastscreen._checkpoints(config.window_steps)[0]
    runs = {}
    for certified, stopped_at in ((False, config.window_steps), (True, first + 1)):
        backend = Instrumentation()
        with use_instrumentation(backend):
            fastscreen.fast_quantities(
                model,
                config.target_flow,
                config.window_steps,
                lambda _, certified=certified: certified,
            )
        spans = {span.name: span for span in backend.tracer.records}
        assert spans["screen.pair_layout"].attrs == {}
        assert spans["screen.pair_chain"].attrs == {
            "steps": config.window_steps,
            "states": model.n_states,
            "simd": cnative.simd_level(),
            "stopped_at": stopped_at,
        }
        runs[certified] = spans
    # The model's tables are built once, in the first screen.
    assert runs[False]["model.recency_tables"].attrs["kernel"] == "native"


# ----------------------------------------------------------------------
# Reachability: the frontier search against the fixpoint it replaced
# ----------------------------------------------------------------------
def _fixpoint_reach(model: CompactModel) -> np.ndarray:
    rows, cols, _, _ = model._sorted_entries()
    reach = model.initial_distribution() > 0.0
    while True:
        successors = cols[reach[rows]]
        before = int(reach.sum())
        reach[successors] = True
        if int(reach.sum()) == before:
            return reach


def _assert_same_reach(model: CompactModel) -> None:
    reach = fastscreen.reachable_states(model)
    assert reach.dtype == np.bool_
    assert reach.tobytes() == _fixpoint_reach(model).tobytes()


def _screen_candidates():
    """Eight candidates per fig6 bin, seeded as the benchmark seeds them."""
    configs = []
    for index, (low, high) in enumerate(VIABLE_FIG6_BINS):
        params = ExperimentParams().with_absence_range(low, high)
        generator = ConfigGenerator(params.config, seed=2017 * 10 + index)
        configs += [generator.sample() for _ in range(8)]
    return configs


@pytest.mark.parametrize("index", range(16))
def test_reach_on_the_screen_candidates(index):
    config = _screen_candidates()[index]
    _assert_same_reach(CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    ))


@pytest.mark.parametrize(
    "rules, rates, cache_size",
    [
        # A rule only a zero-rate flow installs never arrives.
        ([({0}, 4), ({1}, 4)], [0.5, 0.0], 2),
        # Two one-step rules never survive the same step.
        ([({0}, 1), ({1}, 1), ({2}, 3)], [0.6, 0.7, 0.4], 3),
        ([({0}, 3), ({0, 1}, 4), ({2}, 2)], [0.5, 0.9, 0.3], 2),
    ],
)
def test_reach_on_small_models(rules, rates, cache_size):
    _assert_same_reach(CompactModel(
        make_policy(rules), make_universe(rates), 0.25, cache_size
    ))


def test_reach_from_a_cached_start():
    # Rule 0 is cached at the start; flow 8 has rate 0, so rule 7 never
    # arrives.
    model = _StartedModel(
        make_policy([({0}, 200), ({1}, 3), ({2}, 4), ({3, 4}, 5),
                     ({4, 5}, 6), ({6}, 4), ({7}, 5), ({8}, 5)]),
        make_universe([40.0, 1.2, 1e-5, 1.5, 0.9, 3e-5, 0.7, 1.3, 0.0]),
        0.5, cache_size=7,
    )
    _assert_same_reach(model)
    assert not fastscreen.reachable_states(model).all()


@settings(max_examples=30, deadline=None)
@given(dense.model_specs())
def test_reach_on_random_models(spec):
    _assert_same_reach(dense._build(spec, "sparse"))
