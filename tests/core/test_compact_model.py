"""Tests for the compact Markov model."""

import math

import numpy as np
import pytest

from repro.analysis.statecount import compact_state_count
from repro.core.chain import validate_stochastic
from repro.core.compact_model import CompactModel
from repro.core.masks import mask_from_indices, popcount
from repro.flows.arrival import sample_schedule

from tests.conftest import make_policy, make_universe
from tests.oracles.basic import match_in_cache
from tests.oracles.perstate import PerStateCompactModel

DELTA = 0.25


def make_model(rule_specs, rates, cache_size=2, **options):
    """Production model, or the per-state oracle when given its options."""
    policy = make_policy(rule_specs)
    universe = make_universe(rates)
    cls = PerStateCompactModel if options else CompactModel
    return cls(policy, universe, DELTA, cache_size, **options)


@pytest.fixture
def fig2b_model():
    """r0 covers {f0}; r1 covers {f0, f1}; plus a busy disjoint flow."""
    return make_model([({0}, 4), ({0, 1}, 6)], [0.4, 0.6, 0.8], cache_size=2)


class TestStateSpace:
    def test_state_count_formula(self):
        model = make_model(
            [({0}, 3), ({1}, 3), ({2}, 3)], [0.1, 0.1, 0.1], cache_size=2
        )
        expected = 1 + math.comb(3, 1) + math.comb(3, 2)
        assert model.n_states == expected

    def test_empty_state_is_indexed(self, fig2b_model):
        assert fig2b_model.states[fig2b_model.state_index[0]] == 0

    def test_state_rules_roundtrip(self, fig2b_model):
        index = fig2b_model.state_index[mask_from_indices([0, 1])]
        assert fig2b_model.state_rules(index) == frozenset({0, 1})

    def test_all_states_within_capacity(self, fig2b_model):
        for state in fig2b_model.states:
            assert popcount(state) <= 2

    def test_shadowed_rule_has_no_states(self):
        # r1 covers only f0, which r0 outranks: no flow installs r1, so
        # the states are the subsets of {r0, r2} -- 4 instead of the
        # paper's 1 + C(3, 1) + C(3, 2) = 7.
        model = make_model(
            [({0, 1}, 3), ({0}, 3), ({2}, 3)], [0.1, 0.1, 0.1], cache_size=2
        )
        assert model.live_rules == mask_from_indices([0, 2])
        assert model.n_states == 1 + math.comb(2, 1) + math.comb(2, 2)
        assert model.n_states == compact_state_count(2, 2) + 1
        assert not any(state & mask_from_indices([1]) for state in model.states)

    def test_more_rules_than_the_lookup_limit_raise(self):
        from repro.core.transition_build import MAX_LOOKUP_RULES

        rates = [0.1] * (MAX_LOOKUP_RULES + 1)
        specs = [({flow}, 3) for flow in range(len(rates))]
        at_limit = make_model(specs[:-1], rates, cache_size=1)
        assert len(at_limit.policy) == MAX_LOOKUP_RULES
        with pytest.raises(ValueError, match=rf"at most {MAX_LOOKUP_RULES}"):
            make_model(specs, rates, cache_size=1)


def _narrow(monkeypatch, model, dropped):
    """Remove one state from ``model``'s list before anything is built."""
    states = [state for state in model.states if state != dropped]
    monkeypatch.setattr(model, "states", states)
    monkeypatch.setattr(
        model, "state_index", {state: i for i, state in enumerate(states)}
    )
    monkeypatch.setattr(model, "n_states", len(states))


class TestStateLookupErrors:
    """Masks outside the state list fail loudly, naming what is wrong."""

    @pytest.mark.parametrize("multi_expiry", [False, True], ids=[
        "vectorised", "per_state",
    ])
    def test_escaping_successor_is_named(self, monkeypatch, multi_expiry):
        options = {"multi_expiry": True} if multi_expiry else {}
        model = make_model(
            [({0}, 4), ({0, 1}, 6)], [0.4, 0.6, 0.8], cache_size=2,
            **options,
        )
        _narrow(monkeypatch, model, mask_from_indices([0]))
        with pytest.raises(ValueError, match=r"successor mask 0x1 "):
            model.transition_matrix()

    def test_escaping_probe_successor_is_named(self, monkeypatch, fig2b_model):
        _narrow(monkeypatch, fig2b_model, mask_from_indices([1]))
        with pytest.raises(ValueError, match=r"probe successor mask 0x2 "):
            fig2b_model.probe_matrix(1)

    def test_start_holding_uninstallable_rule(self):
        model = make_model(
            [({0, 1}, 3), ({0}, 3), ({2}, 3)], [0.1, 0.1, 0.1], cache_size=2
        )
        with pytest.raises(ValueError, match=r"rule 1 \(r1\)"):
            model.index_of(mask_from_indices([0, 1]), "start state")
        with pytest.raises(ValueError, match=r"rule 1 \(r1\)"):
            model.index_of(mask_from_indices([1]), "start state")
        # Installable states still resolve.
        index = model.index_of(mask_from_indices([0, 2]), "start state")
        assert model.state_index[mask_from_indices([0, 2])] == index


class TestTransitionMatrix:
    def test_row_stochastic(self, fig2b_model):
        validate_stochastic(fig2b_model.transition_matrix())

    def test_exclusion_is_substochastic(self, fig2b_model):
        matrix = fig2b_model.transition_matrix(exclude_flows=(0,))
        validate_stochastic(matrix, substochastic=True)
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert (sums <= 1.0 + 1e-12).all()
        assert sums.min() < 1.0  # some row lost the excluded flow's mass

    def test_exclusion_drops_exactly_flow_probability(self, fig2b_model):
        # From the empty state, excluding flow 0 removes exactly p_f0.
        full = fig2b_model.transition_matrix()
        excl = fig2b_model.transition_matrix(exclude_flows=(0,))
        row = fig2b_model.state_index[0]
        rates = np.asarray(fig2b_model.context.step_rates)
        p_f0 = rates[0] / (1.0 + rates.sum())
        lost = full[row].sum() - excl[row].sum()
        assert lost == pytest.approx(p_f0)

    def test_uncovered_flow_exclusion_only_self_loops(self):
        # Flow 2 is not covered by any rule: with expiry restricted to
        # no-arrival steps, its arrivals are pure self-loops, so
        # excluding it touches only the diagonal.
        model = make_model(
            [({0}, 4), ({0, 1}, 6)],
            [0.4, 0.6, 0.8],
            cache_size=2,
            expire_on_arrival=False,
        )
        full = model.transition_matrix()
        excl = model.transition_matrix(exclude_flows=(2,))
        diff = (full - excl).toarray()
        off_diag = diff - np.diag(np.diag(diff))
        assert np.abs(off_diag).max() < 1e-12
        # The diagonal loses exactly p_f2 on every row.
        rates = np.asarray(model.context.step_rates)
        p_f2 = rates[2] / (1.0 + rates.sum())
        assert np.allclose(np.diag(diff), p_f2)

    def test_install_transition_exists(self, fig2b_model):
        # empty --f0 arrival--> {r0} must have positive probability.
        matrix = fig2b_model.transition_matrix().toarray()
        source = fig2b_model.state_index[0]
        target = fig2b_model.state_index[mask_from_indices([0])]
        assert matrix[source, target] > 0

    def test_miss_installs_highest_priority_rule(self, fig2b_model):
        # From empty, an f0 arrival installs r0 (not r1).
        matrix = fig2b_model.transition_matrix().toarray()
        source = fig2b_model.state_index[0]
        to_r1_only = fig2b_model.state_index[mask_from_indices([1])]
        # {r1} alone is reachable only through f1 arrivals; its
        # probability from empty equals p_f1 (modulo expiry branching).
        rates = np.asarray(fig2b_model.context.step_rates)
        p_f1 = rates[1] / (1.0 + rates.sum())
        assert matrix[source, to_r1_only] == pytest.approx(p_f1, rel=0.01)

    def test_full_cache_install_evicts(self):
        model = make_model(
            [({0}, 4), ({1}, 4), ({2}, 4)], [0.3, 0.3, 0.3], cache_size=2
        )
        matrix = model.transition_matrix().toarray()
        full_state = model.state_index[mask_from_indices([0, 1])]
        # An f2 arrival from {r0, r1} must land in a state containing r2
        # and exactly one of r0/r1.
        with_r2 = [
            model.state_index[mask_from_indices(combo)]
            for combo in ([0, 2], [1, 2])
        ]
        assert sum(matrix[full_state, t] for t in with_r2) > 0
        # And never in the over-capacity state (which does not exist).
        assert mask_from_indices([0, 1, 2]) not in model.state_index


class TestEvolution:
    def test_initial_distribution_default_empty(self, fig2b_model):
        dist = fig2b_model.initial_distribution()
        assert dist[fig2b_model.state_index[0]] == 1.0

    def test_initial_distribution_custom(self, fig2b_model, monkeypatch):
        # The power chain starts from whatever initial_distribution
        # returns: the seam the cached-start screen tests build on.
        index = fig2b_model.state_index[mask_from_indices([1])]
        start = np.zeros(fig2b_model.n_states)
        start[index] = 1.0
        monkeypatch.setattr(fig2b_model, "initial_distribution", lambda: start)
        assert fig2b_model.power_chain().advance(0)[index] == 1.0

    def test_distribution_after_preserves_mass(self, fig2b_model):
        dist = fig2b_model.distribution_after(40)
        assert dist.sum() == pytest.approx(1.0)
        assert (dist >= -1e-15).all()

    def test_excluded_mass_equals_absence_probability(self, fig2b_model):
        steps = 30
        dist = fig2b_model.power_chain((0,)).advance(steps)
        rates = np.asarray(fig2b_model.context.step_rates)
        p_f0 = rates[0] / (1.0 + rates.sum())
        assert dist.sum() == pytest.approx((1.0 - p_f0) ** steps)

    def test_marginals_bounded(self, fig2b_model):
        dist = fig2b_model.distribution_after(50)
        marginals = fig2b_model.rule_presence_marginals(dist)
        assert (marginals >= 0).all() and (marginals <= 1).all()

    def test_occupancy_sums_to_one(self, fig2b_model):
        dist = fig2b_model.distribution_after(50)
        occupancy = fig2b_model.occupancy_distribution(dist)
        assert occupancy.sum() == pytest.approx(1.0)


class TestAgainstSimulation:
    """The decisive check: chain marginals vs direct trace simulation."""

    def _simulate_presence(self, model, horizon_steps, n_trials, seed):
        """Empirical P(rule cached at T) from an exact reference cache.

        The reference tracks, per cached rule, its idle-timeout expiry
        time in continuous time; lookups follow the model context's
        switch semantics, evictions remove the shortest-remaining entry.
        """
        ctx = model.context
        rng = np.random.default_rng(seed)
        horizon = horizon_steps * ctx.delta
        counts = np.zeros(ctx.n_rules)
        timeouts = {
            rule.index: rule.timeout_steps * ctx.delta
            for rule in ctx.policy
        }
        for _ in range(n_trials):
            cache = {}  # rule index -> expiry time
            schedule = sample_schedule(ctx.universe, horizon, rng)
            for arrival in schedule:
                now = arrival.time
                cache = {r: e for r, e in cache.items() if e > now}
                cached_mask = mask_from_indices(cache)
                matched = match_in_cache(ctx, arrival.flow_index, cached_mask)
                if matched is not None:
                    cache[matched] = now + timeouts[matched]  # idle reset
                    continue
                install = ctx.install_rule[arrival.flow_index]
                if install is None:
                    continue
                if len(cache) >= ctx.cache_size:
                    victim = min(cache, key=cache.get)
                    del cache[victim]
                cache[install] = now + timeouts[install]
            for rule, expiry in cache.items():
                if expiry > horizon:
                    counts[rule] += 1
        return counts / n_trials

    @pytest.mark.slow
    def test_marginals_match_simulation(self):
        model = make_model(
            [({0}, 8), ({0, 1}, 12), ({2}, 10)],
            [0.25, 0.4, 0.3],
            cache_size=2,
        )
        steps = 80
        dist = model.distribution_after(steps)
        predicted = model.rule_presence_marginals(dist)
        empirical = self._simulate_presence(model, steps, 4000, seed=17)
        assert np.abs(predicted - empirical).max() < 0.05


class TestModelOptions:
    def test_multi_expiry_still_stochastic(self):
        model = make_model(
            [({0}, 3), ({1}, 4)], [0.2, 0.2], cache_size=2, multi_expiry=True
        )
        validate_stochastic(model.transition_matrix())

    def test_no_expire_on_arrival_still_stochastic(self):
        model = make_model(
            [({0}, 3), ({1}, 4)],
            [0.2, 0.2],
            cache_size=2,
            expire_on_arrival=False,
        )
        validate_stochastic(model.transition_matrix())

    def test_eviction_distribution_exposed(self):
        model = PerStateCompactModel(
            make_policy([({0}, 3), ({1}, 9)]), make_universe([0.2, 0.2]),
            DELTA, 2,
        )
        eviction = model.eviction_distribution(mask_from_indices([0, 1]))
        assert set(eviction) == {0, 1}
        assert sum(eviction.values()) == pytest.approx(1.0)

    def test_state_covers_flow(self, fig2b_model):
        index = fig2b_model.state_index[mask_from_indices([1])]
        assert fig2b_model.coverage_vector(0)[index]  # r1 covers f0
        assert fig2b_model.coverage_vector(1)[index]
        assert not fig2b_model.coverage_vector(2)[index]
