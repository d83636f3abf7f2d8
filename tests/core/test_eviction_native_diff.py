"""Differential tests: the native eviction splits are numpy's, byte for byte.

:func:`repro.core.transition_build.recency_tables` takes the eviction
splits of the at-capacity states (Eqns. 3-5) from one pass of the native
kernel (:func:`repro.core.cnative.eviction_tables`) when it loads, and
from the numpy grouping otherwise.  The kernel pads each state to its
largest cached timeout and sums both axes in numpy's pairwise order, so
these tests pin, comparing dtypes and bytes, the model's tables in every
kernel mode (loaded, ``REPRO_NO_CKERNEL=1``, no gcc) against the numpy
function on:

* the hypothesis models of ``test_sparse_dense_diff`` (capacity 1 to 3,
  hard-timeout rules, one-step timeouts, zero-rate flows);
* capacity 1, capacity 8 and 9 (the eight-accumulator sum over the
  slots, and its tail), timeouts above 128 steps (the recursive split
  of the sum over the support), hard-timeout rules only, and a model
  with no state at capacity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import cnative, transition_build
from repro.core.compact_model import CompactModel
from repro.flows.config import ConfigGenerator, ConfigParams
from repro.obs import Instrumentation, use_instrumentation

from tests.conftest import make_universe
from tests.core import test_sparse_dense_diff as dense
from tests.core.test_build_native_diff import (
    MODES, _assert_same, _policy, kernel_mode,
)


def _numpy_tables(model: CompactModel):
    """The numpy eviction splits, whatever the kernel mode."""
    membership = model.state_membership_matrix() != 0
    _, pmfs = transition_build._hazard_tables(model, membership)
    full_idx = np.nonzero(
        model.state_popcounts() == model.context.cache_size
    )[0]
    return transition_build._eviction_tables(model, membership, full_idx, pmfs)


def _check_every_mode(build_model) -> int:
    """Each mode's tables against numpy's; returns the full states."""
    expected = _numpy_tables(build_model())
    ran = 0
    for mode in MODES:
        with kernel_mode(mode) as build:
            if build is None:
                continue
            tables = build_model().recency_tables()
            _assert_same((tables.evict_rules, tables.evict_probs), expected)
            ran += 1
    assert ran >= 2  # the numpy modes always run
    return len(expected[0])


@settings(max_examples=40, deadline=None)
@given(dense.model_specs())
def test_random_models(spec):
    _check_every_mode(lambda: dense._build(spec, "sparse"))


def _one_rule_per_flow(timeouts, rates, cache_size, hard=()):
    rules = [
        ({flow}, timeout, flow in hard)
        for flow, timeout in enumerate(timeouts)
    ]
    return lambda: CompactModel(
        _policy(rules), make_universe(rates), 0.05, cache_size
    )


@pytest.mark.parametrize(
    "timeouts, rates, cache_size, hard, full_states",
    [
        ([4, 3, 5], [0.4, 0.6, 0.8], 1, (), 3),
        # Eight and nine slots: the slot sum's accumulators and tail.
        ([3, 5, 2, 6, 4, 7, 3, 5, 6, 4], [0.3 + 0.1 * i for i in range(10)],
         8, (), 45),
        ([3, 5, 2, 6, 4, 7, 3, 5, 6, 4], [0.3 + 0.1 * i for i in range(10)],
         9, (2,), 10),
        # Supports of 130 to 300 steps: the recursive split.
        ([130, 300, 9, 200], [0.02, 0.05, 0.9, 0.01], 2, (), 6),
        ([40, 150, 6], [0.1, 0.2, 0.3], 2, (0, 1, 2), 3),
        # No state at capacity: the tables are empty.
        ([4, 3], [0.4, 0.6], 3, (), 0),
    ],
    ids=["capacity-1", "capacity-8", "capacity-9", "long-timeouts",
         "hard-only", "no-full-state"],
)
def test_edge_models(timeouts, rates, cache_size, hard, full_states):
    build = _one_rule_per_flow(timeouts, rates, cache_size, hard)
    assert _check_every_mode(build) == full_states


@pytest.mark.parametrize("seed", [3, 2017])
def test_sampled_paper_configurations(seed):
    config = ConfigGenerator(ConfigParams(), seed=seed).sample()
    assert _check_every_mode(lambda: CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )) > 0


def test_states_below_capacity_are_refused():
    cnative._reset_for_tests()
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")
    model = _one_rule_per_flow([4, 3, 5], [0.4, 0.6, 0.8], 2)()
    membership = model.state_membership_matrix() != 0
    _, pmfs = transition_build._hazard_tables(model, membership)
    states = np.asarray(model.states, dtype=np.int64)
    below = np.flatnonzero(model.state_popcounts() < 2)
    with pytest.raises(ValueError, match="capacity rules"):
        cnative.eviction_tables(states, below, 2, model.context.timeouts, pmfs)
    with pytest.raises(ValueError, match="pmf table per rule"):
        cnative.eviction_tables(
            states, below, 2, model.context.timeouts, pmfs[:-1]
        )


@pytest.mark.parametrize("mode", list(MODES))
def test_span_names_the_kernel(mode):
    model = _one_rule_per_flow([4, 3, 5], [0.4, 0.6, 0.8], 2)()
    backend = Instrumentation()
    with kernel_mode(mode) as build, use_instrumentation(backend):
        if build is None:
            pytest.skip("native kernel unavailable")
        model.recency_tables()
        model.recency_tables()  # memoised: one span
    (span,) = [
        span for span in backend.tracer.records
        if span.name == "model.recency_tables"
    ]
    assert span.attrs == {"kernel": build, "states": model.n_states}
