"""Differential tests: the native entry build is the numpy build, byte for byte.

:func:`repro.core.transition_build.build_entries` enumerates the
arrival events and expands them in one pass of the native kernel
(:func:`repro.core.cnative.expiry_entries`) when it loads, and with the
numpy events, expansion and a stable argsort otherwise.  Both return the
entries in stable ``(row, col)`` order.  These tests pin, comparing
dtypes and bytes:

* native against numpy on the hypothesis models of
  ``test_sparse_dense_diff`` (capacity 1 to 3, hard-timeout rules,
  one-step timeouts, zero-rate flows) and on sampled 12-rule
  configurations;
* the production build against the per-state oracle's entries, sorted
  stably (tests/oracles/perstate.py), with the kernel loaded, disabled
  (``REPRO_NO_CKERNEL=1``) and without gcc;
* an empty entry set, a successor outside the state list (the same
  error on both paths), inputs the kernel refuses, and the
  ``model.build_entries`` span naming the kernel that ran.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import cnative, transition_build
from repro.core.compact_model import CompactModel
from repro.core.masks import mask_from_indices
from repro.flows.config import ConfigGenerator, ConfigParams
from repro.flows.policy import ModelRule, Policy
from repro.obs import Instrumentation, use_instrumentation

from tests.conftest import make_policy, make_universe
from tests.core import test_sparse_dense_diff as dense
from tests.core.test_chain_native_diff import _no_gcc
from tests.core.test_compact_model import _narrow

#: Kernel modes, and the build each one runs.
MODES = {"loaded": "native", "kill switch": "numpy", "no gcc": "numpy"}


@contextmanager
def kernel_mode(mode: str) -> Iterator[Optional[str]]:
    """Run under ``mode``; yields the build it runs, ``None`` if it cannot.

    "loaded" yields ``None`` where the kernel does not compile here.
    """
    with pytest.MonkeyPatch.context() as patch:
        if mode == "kill switch":
            patch.setenv(cnative.DISABLE_ENV_VAR, "1")
        else:
            patch.delenv(cnative.DISABLE_ENV_VAR, raising=False)
            if mode == "no gcc":
                patch.setattr(cnative, "_compiler_version", _no_gcc)
        cnative._reset_for_tests()
        try:
            if cnative.available() != (MODES[mode] == "native"):
                yield None
            else:
                yield MODES[mode]
        finally:
            cnative._reset_for_tests()


@pytest.fixture(scope="module")
def native():
    """Skip without the native kernel."""
    cnative._reset_for_tests()
    if not cnative.available():
        pytest.skip(f"native kernel unavailable: {cnative.load_error()}")


def _numpy_build(model: CompactModel):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cnative, "available", lambda: False)
        return transition_build.build_entries(model)


def _assert_same(actual, expected) -> None:
    for got, want in zip(actual, expected):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _spec_model(spec) -> CompactModel:
    return dense._build(spec, "sparse")


# ----------------------------------------------------------------------
# Native against numpy
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(dense.model_specs())
def test_random_models(native, spec):
    model = _spec_model(spec)
    _assert_same(
        transition_build.build_entries(model), _numpy_build(model)
    )


@pytest.mark.parametrize("seed", [3, 11, 2017])
def test_sampled_paper_configurations(native, seed):
    config = ConfigGenerator(ConfigParams(), seed=seed).sample()
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    entries = transition_build.build_entries(model)
    assert len(entries[0]) > model.n_states
    _assert_same(entries, _numpy_build(model))


def _policy(rules) -> Policy:
    """Rules from ``(covered flows, timeout, hard)``, highest priority first."""
    return Policy([
        ModelRule(index=rank, name=f"r{rank}", flows=frozenset(covered),
                  timeout_steps=timeout, priority=100 - rank, hard=hard)
        for rank, (covered, timeout, hard) in enumerate(rules)
    ])


@pytest.mark.parametrize(
    "rates, rules, cache_size",
    [
        # Capacity 1: every covered miss evicts.
        ([0.4, 0.6, 0.8],
         [({0}, 4, False), ({1, 2}, 3, False), ({2}, 5, False)], 1),
        # Hard-timeout and one-step rules beside a zero-rate flow.
        ([0.0, 0.7, 1.2],
         [({0, 1}, 1, False), ({1}, 3, True), ({2}, 6, True)], 2),
    ],
    ids=["capacity-1", "hard-and-zero-rate"],
)
def test_edge_models(native, rates, rules, cache_size):
    model = CompactModel(
        _policy(rules), make_universe(rates), 0.05, cache_size
    )
    _assert_same(transition_build.build_entries(model), _numpy_build(model))


def test_empty_entry_set(native):
    # An infinite rate leaves every probability NaN, so no entry passes
    # the p > 0 filter on either path.  FlowUniverse refuses the rate,
    # so it is set past the constructor's check.
    universe = make_universe([0.5, 0.5])
    object.__setattr__(universe, "rates", (float("inf"), 0.5))
    model = CompactModel(
        make_policy([({0}, 3), ({1}, 2)]), universe, 0.05, 1,
    )
    with np.errstate(invalid="ignore"):
        entries = transition_build.build_entries(model)
        _assert_same(entries, _numpy_build(model))
    assert [len(array) for array in entries] == [0, 0, 0, 0]


def test_entries_come_row_col_sorted(native):
    model = CompactModel(
        make_policy([({0}, 3), ({0, 1}, 4), ({2}, 2)]),
        make_universe([0.5, 0.9, 0.3]), 0.05, 2,
    )
    rows, cols, _, _ = entries = transition_build.build_entries(model)
    keys = rows * model.n_states + cols
    assert (np.diff(keys) >= 0).all()
    _assert_same(entries, _numpy_build(model))


def test_malformed_events_are_refused(native):
    # The kernel enumerates each row's arrival events from these inputs;
    # any that would index out of bounds are refused before it runs.
    model = CompactModel(
        make_policy([({0}, 3), ({1}, 2)]), make_universe([0.4, 0.6]), 0.05, 1
    )
    ctx = model.context
    states = np.asarray(model.states, dtype=np.int64)
    tables = model.recency_tables()
    lookup = transition_build.state_lookup(model, states)
    p_flows = np.array([0.2, 0.3])

    def build(**changes):
        args = dict(
            states=states, covering=ctx.covering, p_flows=p_flows,
            p_none=0.5, capacity=1, tables=tables, lookup=lookup,
        )
        args.update(changes)
        return cnative.expiry_entries(**args)

    assert len(build()[0]) > 0
    with pytest.raises(ValueError, match="lookup"):
        build(lookup=lookup[:-1])
    with pytest.raises(ValueError, match="one state mask"):
        build(states=states[:-1])
    with pytest.raises(ValueError, match="cover per flow"):
        build(p_flows=p_flows[:1])
    with pytest.raises(ValueError, match="cover per flow"):
        build(covering=((0,), (2,)))
    with pytest.raises(ValueError, match="full states, capacity"):
        build(capacity=2)
    victims = tables.evict_rules.copy()
    victims[0, 0] = 5
    with pytest.raises(ValueError, match="victims out of range"):
        build(tables=tables._replace(evict_rules=victims))
    # A state at capacity without an eviction row.
    no_row = np.where(tables.full_position >= 0, -1, tables.full_position)
    with pytest.raises(ValueError, match="no eviction row"):
        build(tables=tables._replace(full_position=no_row))


# ----------------------------------------------------------------------
# Every kernel mode against the per-state oracle
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(dense.model_specs())
def test_every_mode_matches_the_per_state_oracle(spec):
    expected = dense._build(spec, "dense")._sorted_entries()
    for mode in MODES:
        with kernel_mode(mode) as build:
            if build is not None:
                _assert_same(_spec_model(spec)._sorted_entries(), expected)


@pytest.mark.parametrize("mode", list(MODES))
def test_escaped_successor_is_named_in_every_mode(monkeypatch, mode):
    with kernel_mode(mode) as build:
        if build is None:
            pytest.skip("native kernel unavailable")
        model = CompactModel(
            make_policy([({0}, 4), ({0, 1}, 6)]),
            make_universe([0.4, 0.6, 0.8]), 0.05, 2,
        )
        _narrow(monkeypatch, model, mask_from_indices([0]))
        with pytest.raises(ValueError, match=r"^successor mask 0x1 "):
            transition_build.build_entries(model)


@pytest.mark.parametrize("mode", list(MODES))
def test_span_names_the_kernel(mode):
    model = CompactModel(
        make_policy([({0}, 3), ({1}, 2), ({0, 2}, 5)]),
        make_universe([0.4, 0.6, 0.8]), 0.05, 2,
    )
    backend = Instrumentation()
    with kernel_mode(mode) as build, use_instrumentation(backend):
        if build is None:
            pytest.skip("native kernel unavailable")
        entries = model._sorted_entries()
        model.transition_matrix((1,))
    (span,) = [
        span for span in backend.tracer.records
        if span.name == "model.build_entries"
    ]
    assert span.attrs == {
        "kernel": build, "states": model.n_states, "entries": len(entries[0]),
    }
