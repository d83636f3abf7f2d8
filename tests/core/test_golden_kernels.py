"""Golden-value pins for the probability kernels (Eqns. 1-8).

Every literal below was generated from the reference per-state
implementation *before* the sparse kernel was introduced, on a 3-rule /
2-slot / 3-flow policy small enough to verify by hand.  The suite runs
against production (``sparse``) and the dense oracle
(:mod:`tests.oracles.dense`): a kernel that drifts from these values --
in the transition matrix, the evolved distributions, the estimator
tables, or the Eqn. 1-7 inference quantities -- fails here before any
experiment-level test can be confused by it.

Tolerances are `atol=1e-12`, far below any legitimate reformulation
noise but far above the ~1e-16 ulp differences dense BLAS is allowed.
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.conftest import make_policy, make_universe
from repro.core.chain import (
    per_flow_step_probabilities,
    row_sums,
    stationary_distribution,
)
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.recency import ExactRecencyEstimator

from tests import oracles

ATOL = 1e-12

#: The pinned scenario: three rules (timeouts 2, 3, 1 steps), two cache
#: slots, three flows with rates 0.4/0.6/0.8 events/s, Delta = 0.25 s.
DELTA = 0.25
RATES = [0.4, 0.6, 0.8]
SPECS = [({0}, 2), ({0, 1}, 3), ({2}, 1)]
CACHE = 2

GOLDEN_STATES = [0, 1, 2, 4, 3, 5, 6]
GOLDEN_P_FLOWS = [
    0.06896551724137931, 0.10344827586206896, 0.13793103448275862,
]
GOLDEN_P_NONE = 0.6896551724137931

GOLDEN_MATRIX = [
    [0.6896551724137931, 0.06896551724137931, 0.10344827586206896,
     0.13793103448275862, 0.0, 0.0, 0.0],
    [0.32760056035935176, 0.4310201292958207, 0.049140084053902765,
     0.06552011207187035, 0.054308191808166206, 0.07241092241088827, 0.0],
    [0.17536221557963144, 0.0, 0.6867067499376099,
     0.03507244311592629, 0.0, 0.0, 0.10285859136683233],
    [0.6896551724137931, 0.06896551724137931, 0.10344827586206896,
     0.13793103448275862, 0.0, 0.0, 0.0],
    [0.0, 0.13886624790334012, 0.3201051360250835,
     0.047254640169115, 0.40309758158881775, 0.02201094718329156,
     0.06866544713035207],
    [0.32760056035935176, 0.4310201292958207, 0.062038844753535105,
     0.06552011207187035, 0.041409431108533866, 0.07241092241088827, 0.0],
    [0.17536221557963144, 0.0, 0.6867067499376099,
     0.03507244311592629, 0.0, 0.0, 0.10285859136683233],
]

GOLDEN_MATRIX_EXCL0 = [
    [0.6896551724137931, 0.0, 0.10344827586206896,
     0.13793103448275862, 0.0, 0.0, 0.0],
    [0.32760056035935176, 0.3620546120544414, 0.049140084053902765,
     0.06552011207187035, 0.054308191808166206, 0.07241092241088827, 0.0],
    [0.17536221557963144, 0.0, 0.6177412326962306,
     0.03507244311592629, 0.0, 0.0, 0.10285859136683233],
    [0.6896551724137931, 0.0, 0.10344827586206896,
     0.13793103448275862, 0.0, 0.0, 0.0],
    [0.0, 0.119227425189207, 0.3201051360250835,
     0.047254640169115, 0.3537708870615716, 0.02201094718329156,
     0.06866544713035207],
    [0.32760056035935176, 0.3620546120544414, 0.062038844753535105,
     0.06552011207187035, 0.041409431108533866, 0.07241092241088827, 0.0],
    [0.17536221557963144, 0.0, 0.6177412326962306,
     0.03507244311592629, 0.0, 0.0, 0.10285859136683233],
]

#: ``I_4 = A^4 I_0`` from the empty cache (Eqn. 8).
GOLDEN_D4 = [
    0.5385001043571048, 0.0897413982660989, 0.22603142141331192,
    0.10800389307407222, 0.007796041480725992, 0.0071958248753758985,
    0.022731316533310515,
]
GOLDEN_MARGINALS_D4 = [
    0.1047332646222008, 0.25655877942734845, 0.13793103448275865,
]
GOLDEN_OCCUPANCY_D4 = [
    0.5385001043571048, 0.42377671275348305, 0.037723182889412406,
]
GOLDEN_STATIONARY = [
    0.4884435188386211, 0.07764349289361862, 0.2884848617933041,
    0.0980429761521038, 0.007497091991699398, 0.006239028870956703,
    0.033649029459698394,
]

#: Independent-estimator tables for every at-capacity state.
GOLDEN_INDEPENDENT = {
    0b011: (
        {0: 0.47502081252106004, 1: 0.2847629293549306},
        {0: 0.6960272504416845, 1: 0.30397274955831555},
    ),
    0b110: (
        {1: 0.2542752125904656, 2: 1.0},
        {1: 0.12713760629523282, 2: 0.8728623937047673},
    ),
    0b101: (
        {0: 0.47502081252106004, 2: 1.0},
        {0: 0.23751040626053002, 2: 0.76248959373947},
    ),
}
GOLDEN_EXACT_011 = (
    {0: 0.43647024552817476, 1: 0.4388327537871136},
    {0: 0.49924449526714093, 1: 0.500755504732859},
)

GOLDEN_PRIOR_ABSENT = 0.7513859413726653
GOLDEN_EVOLUTION_EXCL0 = [
    0.4596313620963379, 0.0, 0.18043814351741405, 0.09192627241926757,
    0.0, 0.0, 0.01939016333964581,
]


@pytest.fixture(
    params=[CompactModel, oracles.dense.DenseCompactModel],
    ids=["sparse", "dense"],
)
def model(request) -> CompactModel:
    return request.param(
        make_policy(SPECS), make_universe(RATES), DELTA, CACHE
    )


def _dense(matrix) -> np.ndarray:
    return matrix.toarray() if hasattr(matrix, "toarray") else np.asarray(matrix)


class TestGoldenModel:
    def test_state_enumeration(self, model):
        assert model.states == GOLDEN_STATES

    def test_step_probabilities(self, model):
        p_flows, p_none = per_flow_step_probabilities(
            np.asarray(model.context.step_rates)
        )
        np.testing.assert_allclose(p_flows, GOLDEN_P_FLOWS, atol=ATOL, rtol=0)
        assert p_none == pytest.approx(GOLDEN_P_NONE, abs=ATOL)

    def test_transition_matrix(self, model):
        np.testing.assert_allclose(
            _dense(model.transition_matrix()), GOLDEN_MATRIX,
            atol=ATOL, rtol=0,
        )

    def test_excluded_matrix(self, model):
        excluded = model.transition_matrix(exclude_flows=(0,))
        np.testing.assert_allclose(
            _dense(excluded), GOLDEN_MATRIX_EXCL0, atol=ATOL, rtol=0
        )
        # Substochastic by exactly the excluded flow's arrival mass.
        np.testing.assert_allclose(
            row_sums(excluded), 1.0 - GOLDEN_P_FLOWS[0], atol=ATOL, rtol=0
        )

    def test_distribution_after(self, model):
        np.testing.assert_allclose(
            model.distribution_after(4), GOLDEN_D4, atol=ATOL, rtol=0
        )

    def test_rule_presence_marginals(self, model):
        np.testing.assert_allclose(
            model.rule_presence_marginals(np.asarray(GOLDEN_D4)),
            GOLDEN_MARGINALS_D4, atol=ATOL, rtol=0,
        )

    def test_occupancy(self, model):
        np.testing.assert_allclose(
            model.occupancy_distribution(np.asarray(GOLDEN_D4)),
            GOLDEN_OCCUPANCY_D4, atol=ATOL, rtol=0,
        )

    def test_stationary(self, model):
        np.testing.assert_allclose(
            stationary_distribution(model.transition_matrix()),
            GOLDEN_STATIONARY, atol=1e-9, rtol=0,
        )


class TestGoldenEstimators:
    def test_independent_tables(self, model):
        for state, (hazards, eviction) in GOLDEN_INDEPENDENT.items():
            stats = model.estimator.stats(state)
            assert set(stats.timeout_hazards) == set(hazards)
            for rule, value in hazards.items():
                assert stats.timeout_hazards[rule] == pytest.approx(
                    value, abs=ATOL
                )
            for rule, value in eviction.items():
                assert stats.eviction[rule] == pytest.approx(value, abs=ATOL)

    def test_exact_estimator(self, model):
        stats = ExactRecencyEstimator(model.context).stats(0b011)
        hazards, eviction = GOLDEN_EXACT_011
        for rule, value in hazards.items():
            assert stats.timeout_hazards[rule] == pytest.approx(
                value, abs=ATOL
            )
        for rule, value in eviction.items():
            assert stats.eviction[rule] == pytest.approx(value, abs=ATOL)


class TestGoldenInference:
    def test_prior_and_excluded_evolution(self, model):
        inference = ReconInference(model, 0, 4)
        assert inference.prior_absent() == pytest.approx(
            GOLDEN_PRIOR_ABSENT, abs=ATOL
        )
        np.testing.assert_allclose(
            inference.evolution((0,)), GOLDEN_EVOLUTION_EXCL0,
            atol=ATOL, rtol=0,
        )

    def test_power_chain_matches_golden(self, model):
        # Incremental advance through T=4 lands on the same pinned values.
        chain = model.power_chain()
        for steps in (1, 2, 3):
            chain.advance(steps)
        np.testing.assert_allclose(
            chain.advance(4), GOLDEN_D4, atol=ATOL, rtol=0
        )
