"""Hypothesis property tests over randomly generated tiny models.

These check structural invariants of the compact model for *arbitrary*
small policies, not just the handcrafted fixtures: transition matrices
are row-stochastic, target exclusion is monotone and exact, probe walks
conserve mass, and information gains respect their bounds.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chain import validate_stochastic
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from tests.oracles.probes import walk_probes
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse
from repro.flows.flowid import FlowId

N_FLOWS = 4


@st.composite
def tiny_models(draw):
    """A random policy of 2-4 rules over 4 flows, plus rates."""
    n_rules = draw(st.integers(2, 4))
    rules = []
    for rank in range(n_rules):
        covered = draw(
            st.sets(
                st.integers(0, N_FLOWS - 1), min_size=1, max_size=N_FLOWS
            )
        )
        timeout = draw(st.integers(2, 6))
        rules.append(
            ModelRule(
                index=rank,
                name=f"r{rank}",
                flows=frozenset(covered),
                timeout_steps=timeout,
                priority=100 - rank,
            )
        )
    rates = tuple(
        draw(
            st.floats(
                0.01, 1.5, allow_nan=False, allow_infinity=False
            )
        )
        for _ in range(N_FLOWS)
    )
    cache_size = draw(st.integers(1, 3))
    universe = FlowUniverse(
        tuple(FlowId(src=i, dst=99) for i in range(N_FLOWS)), rates
    )
    return CompactModel(Policy(rules), universe, 0.25, cache_size)


@settings(max_examples=25, deadline=None)
@given(tiny_models())
def test_transition_matrix_row_stochastic(model):
    validate_stochastic(model.transition_matrix())


@settings(max_examples=25, deadline=None)
@given(tiny_models(), st.integers(0, N_FLOWS - 1))
def test_exclusion_entrywise_dominated(model, flow):
    full = model.transition_matrix().toarray()
    excluded = model.transition_matrix(exclude_flows=(flow,)).toarray()
    assert (excluded <= full + 1e-12).all()
    assert (excluded >= -1e-15).all()


@settings(max_examples=25, deadline=None)
@given(tiny_models(), st.integers(0, N_FLOWS - 1), st.integers(0, 25))
def test_excluded_mass_is_geometric(model, flow, steps):
    dist = model.power_chain((flow,)).advance(steps)
    rates = np.asarray(model.context.step_rates)
    p_flow = rates[flow] / (1.0 + rates.sum())
    assert dist.sum() == pytest.approx((1.0 - p_flow) ** steps, rel=1e-9)


@settings(max_examples=20, deadline=None)
@given(tiny_models(), st.lists(st.integers(0, N_FLOWS - 1), max_size=3))
def test_probe_walk_conserves_mass(model, probes):
    dist = model.distribution_after(10)
    weights = {
        model.states[i]: float(w) for i, w in enumerate(dist) if w > 0
    }
    outcomes = walk_probes(model, weights, tuple(probes), prune=0.0)
    assert sum(outcomes.values()) == pytest.approx(1.0)


@settings(max_examples=15, deadline=None)
@given(tiny_models(), st.integers(0, N_FLOWS - 1))
def test_information_gain_bounds(model, target):
    inference = ReconInference(model, target, window_steps=12)
    prior_entropy = inference.prior_entropy()
    for flow in range(N_FLOWS):
        gain = inference.information_gain((flow,))
        assert 0.0 <= gain <= prior_entropy + 1e-9


@settings(max_examples=15, deadline=None)
@given(tiny_models())
def test_occupancy_never_exceeds_capacity(model):
    dist = model.distribution_after(20)
    occupancy = model.occupancy_distribution(dist)
    assert occupancy.sum() == pytest.approx(1.0)
    assert len(occupancy) == model.context.cache_size + 1
