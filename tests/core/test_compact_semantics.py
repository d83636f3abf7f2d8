"""Deeper semantic tests of the compact model's transition options.

The options live on the per-state oracle (tests/oracles/perstate.py);
production implements only the defaults.
"""

import numpy as np
import pytest

from repro.core.chain import validate_stochastic
from repro.core.masks import mask_from_indices

from tests.conftest import make_policy, make_universe
from tests.oracles.perstate import PerStateCompactModel

DELTA = 0.25


def build(multi_expiry=False, expire_on_arrival=True, cache_size=2):
    policy = make_policy([({0}, 4), ({0, 1}, 6), ({2}, 5)])
    universe = make_universe([0.3, 0.4, 0.5])
    return PerStateCompactModel(
        policy,
        universe,
        DELTA,
        cache_size,
        multi_expiry=multi_expiry,
        expire_on_arrival=expire_on_arrival,
    )


class TestExpiryOptions:
    def test_option_matrices_all_stochastic(self):
        for multi in (False, True):
            for on_arrival in (False, True):
                model = build(multi_expiry=multi, expire_on_arrival=on_arrival)
                validate_stochastic(model.transition_matrix())

    def test_multi_expiry_close_to_single_approximation(self):
        # Hazards are small per step, so enumerating expiry subsets and
        # the renormalised at-most-one approximation must nearly agree.
        single = build(multi_expiry=False)
        multi = build(multi_expiry=True)
        steps = 40
        marg_single = single.rule_presence_marginals(
            single.distribution_after(steps)
        )
        marg_multi = multi.rule_presence_marginals(
            multi.distribution_after(steps)
        )
        assert np.abs(marg_single - marg_multi).max() < 0.02

    def test_expire_on_arrival_matters_under_load(self):
        # Restricting expirations to no-arrival steps starves the expiry
        # channel when arrivals are frequent, inflating residency.
        always = build(expire_on_arrival=True)
        idle_only = build(expire_on_arrival=False)
        steps = 60
        marg_always = always.rule_presence_marginals(
            always.distribution_after(steps)
        ).sum()
        marg_idle = idle_only.rule_presence_marginals(
            idle_only.distribution_after(steps)
        ).sum()
        assert marg_idle >= marg_always - 1e-9


class TestEstimatorSwapping:
    def test_montecarlo_estimator_consistent_marginals(self):
        from tests.oracles.recency import MonteCarloRecencyEstimator

        base = build()
        swapped = build()
        swapped.estimator = MonteCarloRecencyEstimator(
            swapped.context, n_samples=2500, seed=7
        )
        steps = 30
        base_marg = base.rule_presence_marginals(
            base.distribution_after(steps)
        )
        swapped_marg = swapped.rule_presence_marginals(
            swapped.distribution_after(steps)
        )
        assert np.abs(base_marg - swapped_marg).max() < 0.05


class TestHitSelfLoopAccounting:
    def test_hit_mass_stays_in_state_without_expiry(self):
        model = build(expire_on_arrival=False)
        matrix = model.transition_matrix().toarray()
        state = mask_from_indices([0, 1, 2])
        # Cache size is 2, so this state does not exist; use a full
        # 2-rule state instead.
        state = mask_from_indices([0, 2])
        row = model.state_index[state]
        rates = np.asarray(model.context.step_rates)
        denom = 1.0 + rates.sum()
        # Flows 0 and 2 hit (pure self-loops with expire_on_arrival off);
        # the no-arrival event self-loops except for its expiry branches.
        hit_mass = (rates[0] + rates[2]) / denom
        p_none = 1.0 / denom
        assert hit_mass <= matrix[row, row] <= hit_mass + p_none + 1e-12
        # Flow 1 misses and installs rule 1, evicting one of the two:
        # all its mass leaves the state.
        off_diagonal = matrix[row].sum() - matrix[row, row]
        assert off_diagonal >= rates[1] / denom - 1e-12
        assert matrix[row].sum() == pytest.approx(1.0)
