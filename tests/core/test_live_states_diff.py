"""Differential tests: the live-state model is the all-subsets model, restricted.

Production's :class:`~repro.core.compact_model.CompactModel` enumerates
only the cache states whose rules some flow installs; the oracle
(:mod:`tests.oracles.fullstate`) keeps every subset of at most ``n``
rules, as in the paper.  The live set is closed under every transition,
so on hypothesis-random models (default semantics, ``multi_expiry=True``
and the exact recency estimator) and on the 16 pinned candidates of the
``screen`` benchmark workload:

* both transition matrices -- full and target-excluded -- equal the
  oracle's principal submatrix on the live states, bit for bit;
* evolved distributions are bit-identical on the live states, and the
  oracle puts exactly zero mass on every other state;
* hit probabilities, posteriors and gains agree within 1e-12.  They are
  reductions over shorter vectors, so they may move by an ulp; the
  largest deviation seen on the pinned candidates was 7.8e-16 (reported
  as the ``max_deviation`` property of the pinned test);
* on the pinned candidates, every flow's probe matrix equals the
  per-state oracle's (:mod:`tests.oracles.perstate`) bit for bit.

The last part shows why the float32 screen still runs its own
reachability fixpoint: a live state need not be reachable.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compact_model import CompactModel
from repro.core.context import ModelContext
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.core.masks import mask_from_indices
from repro.experiments import fastscreen
from repro.experiments.params import VIABLE_FIG6_BINS, ExperimentParams
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.flows.flowid import FlowId
from repro.flows.policy import ModelRule, Policy
from repro.flows.universe import FlowUniverse

from tests.conftest import make_policy, make_universe
from tests.oracles.fullstate import FullStateCompactModel
from tests.oracles.perstate import PerStateCompactModel
from tests.oracles.recency import ExactRecencyEstimator

N_FLOWS = 4
DELTA = 0.25
WINDOW = 12

#: Tolerance for quantities reduced over the (shorter) live vectors.
REDUCTION_ATOL = 1e-12

VARIANTS = ("default", "multi_expiry", "exact")


@st.composite
def model_specs(draw):
    """A random tiny scenario in which some rules are often shadowed."""
    n_rules = draw(st.integers(2, 5))
    rules: List[Tuple[frozenset, int, bool]] = []
    for rank in range(n_rules):
        if rank and draw(st.booleans()):
            # A subset of a higher-priority rule's flows: shadowed, so
            # never installed.
            parent = draw(st.integers(0, rank - 1))
            pool = sorted(rules[parent][0])
            covered = frozenset(
                draw(st.sets(st.sampled_from(pool), min_size=1))
            )
        else:
            covered = frozenset(
                draw(
                    st.sets(
                        st.integers(0, N_FLOWS - 1),
                        min_size=1,
                        max_size=N_FLOWS,
                    )
                )
            )
        rules.append((covered, draw(st.integers(1, 6)), draw(st.booleans())))
    rates = tuple(
        draw(st.floats(0.0, 1.5, allow_nan=False, allow_infinity=False))
        for _ in range(N_FLOWS)
    )
    cache_size = draw(st.integers(1, 4))
    return rules, rates, cache_size


def _scenario(spec) -> Tuple[Policy, FlowUniverse, int]:
    rule_specs, rates, cache_size = spec
    rules = [
        ModelRule(
            index=rank,
            name=f"r{rank}",
            flows=covered,
            timeout_steps=timeout,
            priority=100 - rank,
            hard=hard,
        )
        for rank, (covered, timeout, hard) in enumerate(rule_specs)
    ]
    universe = FlowUniverse(
        tuple(FlowId(src=i, dst=99) for i in range(N_FLOWS)), rates
    )
    return Policy(rules), universe, cache_size


class _FullStatePerStateModel(FullStateCompactModel, PerStateCompactModel):
    """The full-state oracle on the per-state builder's semantics knobs."""


def _pair(spec, variant: str) -> Tuple[CompactModel, CompactModel]:
    """Live-state model and full-state oracle for one scenario.

    The default variant is production; the others exist only on the
    per-state oracle (tests/oracles/perstate.py).
    """
    policy, universe, cache_size = _scenario(spec)
    classes = (CompactModel, FullStateCompactModel)
    if variant != "default":
        classes = (PerStateCompactModel, _FullStatePerStateModel)
    built = []
    for cls in classes:
        kwargs: Dict[str, object] = {}
        if variant == "multi_expiry":
            kwargs["multi_expiry"] = True
        elif variant == "exact":
            kwargs["estimator"] = ExactRecencyEstimator(
                ModelContext(policy, universe, DELTA, cache_size)
            )
        built.append(cls(policy, universe, DELTA, cache_size, **kwargs))
    return built[0], built[1]


def _live_positions(model: CompactModel, oracle: CompactModel) -> np.ndarray:
    """Oracle index of every production state, in production order."""
    return np.array(
        [oracle.state_index[state] for state in model.states], dtype=np.int64
    )


def _assert_restriction(model, oracle, exclusions, steps) -> None:
    """Matrices and distributions are the oracle's, on the live states."""
    live = _live_positions(model, oracle)
    assert np.all(np.diff(live) > 0)  # original order kept
    dead = np.ones(oracle.n_states, dtype=bool)
    dead[live] = False
    for exclude in exclusions:
        matrix = model.transition_matrix(exclude).toarray()
        full = oracle.transition_matrix(exclude).toarray()
        np.testing.assert_array_equal(matrix, full[np.ix_(live, live)])
        dist = model.distribution_after(steps, exclude_flows=exclude)
        full_dist = oracle.distribution_after(steps, exclude_flows=exclude)
        np.testing.assert_array_equal(dist, full_dist[live])
        assert not full_dist[dead].any()


def _deviation(model, oracle, target, window) -> float:
    """Largest gap in hit probabilities, posteriors and gains."""
    inference = ReconInference(model, target, window)
    reference = ReconInference(oracle, target, window)
    flows = list(range(model.context.n_flows))
    gaps = [abs(inference.prior_absent() - reference.prior_absent())]
    for flow in flows:
        gaps.append(
            abs(inference.hit_probability(flow)
                - reference.hit_probability(flow))
        )
        table = inference.outcome_table((flow,))
        expected = reference.outcome_table((flow,))
        for outcome in ((0,), (1,)):
            gaps.append(
                abs(table.posterior_absent(outcome)
                    - expected.posterior_absent(outcome))
            )
        gaps.append(
            abs(inference.information_gain((flow,))
                - reference.information_gain((flow,)))
        )
    engine_gains = ProbeScoringEngine(inference=inference).score_tails(
        (), flows
    )
    oracle_gains = ProbeScoringEngine(inference=reference).score_tails(
        (), flows
    )
    gaps.extend(np.abs(engine_gains - oracle_gains).tolist())
    return max(gaps)


# ----------------------------------------------------------------------
# Random models
# ----------------------------------------------------------------------
@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=25, deadline=None)
@given(spec=model_specs(), target=st.integers(0, N_FLOWS - 1),
       steps=st.integers(0, 30))
def test_random_models_restrict_bit_for_bit(variant, spec, target, steps):
    model, oracle = _pair(spec, variant)
    assert set(model.states) == {
        state for state in oracle.states if not state & ~model.live_rules
    }
    _assert_restriction(model, oracle, ((), (target,)), steps)


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=10, deadline=None)
@given(spec=model_specs(), target=st.integers(0, N_FLOWS - 1))
def test_random_models_inference_agrees(variant, spec, target):
    model, oracle = _pair(spec, variant)
    assert _deviation(model, oracle, target, WINDOW) <= REDUCTION_ATOL


@settings(max_examples=20, deadline=None)
@given(spec=model_specs(), flow=st.integers(0, N_FLOWS - 1))
def test_probe_matrices_restrict_bit_for_bit(spec, flow):
    """Zero-rate flows still install live rules: probes stay closed."""
    model, oracle = _pair(spec, "default")
    live = _live_positions(model, oracle)
    np.testing.assert_array_equal(
        model.probe_matrix(flow).toarray(),
        oracle.probe_matrix(flow).toarray()[np.ix_(live, live)],
    )


# ----------------------------------------------------------------------
# The pinned candidates of the ``screen`` benchmark workload
# ----------------------------------------------------------------------
#: Candidates per absence bin; the workload's pinned streams are seeded
#: ``2017 * 10 + bin``.
PINNED_PER_BIN = 8


@pytest.fixture(scope="module")
def pinned_candidates() -> List[NetworkConfiguration]:
    configs = []
    for index, (low, high) in enumerate(VIABLE_FIG6_BINS):
        params = ExperimentParams(seed=2017).with_absence_range(low, high)
        generator = ConfigGenerator(params.config, seed=2017 * 10 + index)
        configs.extend(generator.sample() for _ in range(PINNED_PER_BIN))
    return configs


@pytest.mark.slow
@pytest.mark.parametrize(
    "position", range(len(VIABLE_FIG6_BINS) * PINNED_PER_BIN)
)
def test_pinned_screen_candidates(pinned_candidates, position,
                                  record_property):
    config = pinned_candidates[position]
    args = (config.policy, config.universe, config.delta, config.cache_size)
    model, oracle = CompactModel(*args), FullStateCompactModel(*args)
    assert model.n_states <= oracle.n_states == 2510
    _assert_restriction(
        model, oracle, ((), (config.target_flow,)), config.window_steps
    )
    deviation = _deviation(
        model, oracle, config.target_flow, config.window_steps
    )
    record_property("max_deviation", deviation)
    assert deviation <= REDUCTION_ATOL
    per_state = PerStateCompactModel(*args)
    for flow in range(model.context.n_flows):
        actual = model.probe_matrix(flow)
        expected = per_state.probe_matrix(flow)
        np.testing.assert_array_equal(actual.indptr, expected.indptr)
        np.testing.assert_array_equal(actual.indices, expected.indices)
        np.testing.assert_array_equal(actual.data, expected.data)


# ----------------------------------------------------------------------
# Live is not reachable: why the float32 screen keeps its fixpoint
# ----------------------------------------------------------------------
def _reachable_masks(model: CompactModel) -> set:
    reach = fastscreen.reachable_states(model)
    return {model.states[index] for index in np.flatnonzero(reach)}


class TestLiveIsNotReachable:
    def test_zero_rate_installer(self):
        """r1 is live (f1 installs it) but f1 never arrives."""
        model = CompactModel(
            make_policy([({0}, 4), ({1}, 4)]),
            make_universe([0.5, 0.0]),
            DELTA,
            2,
        )
        r1 = mask_from_indices([1])
        assert model.live_rules == 0b11
        assert r1 in model.state_index
        reachable = _reachable_masks(model)
        assert reachable == {0, mask_from_indices([0])}

    def test_one_step_timeouts_block_co_installation(self):
        """Two one-step rules: only the rule matched this step survives."""
        model = CompactModel(
            make_policy([({0}, 1), ({1}, 1)]),
            make_universe([0.5, 0.5]),
            DELTA,
            2,
        )
        both = mask_from_indices([0, 1])
        assert both in model.state_index
        assert both not in _reachable_masks(model)

    @settings(max_examples=40, deadline=None)
    @given(spec=model_specs(), data=st.data())
    def test_priorities_alone_never_block(self, spec, data):
        """With every rate positive and no one-step timeout, live == reachable.

        Installing the live rules of a state in descending priority
        order never hits an earlier one (each installer's highest
        cover is the rule being installed), so priorities cannot keep
        two installable rules apart.
        """
        rule_specs, _, cache_size = spec
        rule_specs = [
            (covered, max(timeout, 2), hard)
            for covered, timeout, hard in rule_specs
        ]
        rates = tuple(
            data.draw(st.floats(0.05, 1.5)) for _ in range(N_FLOWS)
        )
        model = CompactModel(
            *_scenario((rule_specs, rates, cache_size))[:2], DELTA, cache_size
        )
        assert _reachable_masks(model) == set(model.states)
