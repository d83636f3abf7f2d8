"""Tests for the basic (full-fidelity) Markov model of Section IV-A.

Several cases are transcriptions of the paper's Figure 3 example:
rule_1 covers f1; rule_2 covers f1 and f2 (overlapping, lower
priority); rule_3 covers f3.
"""

import numpy as np
import pytest

from tests.oracles.basic import NO_FLOW, BasicModel, CacheEntry
from repro.core.compact_model import CompactModel

from tests.conftest import make_policy, make_universe

DELTA = 0.25


def make_model(rule_specs, rates, cache_size=2):
    policy = make_policy(rule_specs)
    universe = make_universe(rates)
    return BasicModel(policy, universe, DELTA, cache_size)


@pytest.fixture
def fig3_model():
    """Figure 3: r0={f0} t=8, r1={f0,f1} t=10, r2={f2} t=7; cache 2."""
    return make_model(
        [({0}, 8), ({0, 1}, 10), ({2}, 7)], [0.3, 0.5, 0.4], cache_size=2
    )


def successors(model, state):
    return {succ: (prob, tag) for succ, prob, tag in model.transitions(state)}


class TestTimeoutTransitions:
    def test_timeout_takes_priority(self, fig3_model):
        state = (CacheEntry(2, 5), CacheEntry(0, 0))
        transitions = fig3_model.transitions(state)
        assert len(transitions) == 1
        successor, prob, tag = transitions[0]
        assert prob == 1.0
        assert tag == NO_FLOW
        assert successor == (CacheEntry(2, 5),)

    def test_deepest_zero_removed_first(self, fig3_model):
        state = (CacheEntry(0, 0), CacheEntry(2, 0))
        (successor, prob, _), = fig3_model.transitions(state)
        assert successor == (CacheEntry(0, 0),)

    def test_timeout_does_not_decrement_timers(self, fig3_model):
        state = (CacheEntry(2, 3), CacheEntry(0, 0))
        (successor, _, _), = fig3_model.transitions(state)
        assert successor[0].exp == 3


class TestArrivalTransitions:
    def test_no_arrival_decrements_all(self, fig3_model):
        state = (CacheEntry(2, 6), CacheEntry(0, 1))
        succ = successors(fig3_model, state)
        decremented = (CacheEntry(2, 5), CacheEntry(0, 0))
        assert decremented in succ
        prob, tag = succ[decremented]
        assert tag == NO_FLOW
        assert prob > 0

    def test_hit_moves_rule_to_front_and_resets(self, fig3_model):
        # Figure 3: f0 or f1 arrival in [(r1:10), (r2:5)] resets r1's
        # clock to 10 and decrements r2's.
        state = (CacheEntry(1, 10), CacheEntry(2, 5))
        succ = successors(fig3_model, state)
        expected = (CacheEntry(1, 10), CacheEntry(2, 4))
        assert expected in succ
        # Both f0 and f1 cause this transition; per-flow entries exist
        # separately in the transition list.
        tags = {
            tag
            for s, prob, tag in fig3_model.transitions(state)
            if s == expected
        }
        assert tags == {0, 1}

    def test_hit_prefers_highest_priority_cached(self, fig3_model):
        # Both r0 and r1 cached: f0 matches r0, moving it to front.
        state = (CacheEntry(1, 9), CacheEntry(0, 4))
        succ = successors(fig3_model, state)
        expected = (CacheEntry(0, 8), CacheEntry(1, 8))
        assert expected in succ
        assert succ[expected][1] == 0  # caused by flow 0

    def test_miss_installs_at_front(self, fig3_model):
        # Figure 3: f2 arrival in [(r1:10)] installs r2 at the front.
        state = (CacheEntry(1, 10),)
        succ = successors(fig3_model, state)
        expected = (CacheEntry(2, 7), CacheEntry(1, 9))
        assert expected in succ
        assert succ[expected][1] == 2

    def test_miss_evicts_shortest_remaining(self, fig3_model):
        # Figure 3: f1 arrival in [(r2:6), (r0:1)] installs r1 and
        # evicts r0 (smallest remaining time).
        state = (CacheEntry(2, 6), CacheEntry(0, 1))
        succ = successors(fig3_model, state)
        expected = (CacheEntry(1, 10), CacheEntry(2, 5))
        assert expected in succ
        assert succ[expected][1] == 1

    def test_eviction_tie_breaks_toward_deepest(self):
        model = make_model(
            [({0}, 5), ({1}, 5), ({2}, 5)], [0.2, 0.2, 0.2], cache_size=2
        )
        state = (CacheEntry(0, 3), CacheEntry(1, 3))
        succ = successors(model, state)
        # f2 install evicts the deepest of the tied entries (r1).
        expected = (CacheEntry(2, 5), CacheEntry(0, 2))
        assert expected in succ

    def test_probabilities_sum_to_one(self, fig3_model):
        state = (CacheEntry(1, 10), CacheEntry(2, 5))
        total = sum(prob for _, prob, _ in fig3_model.transitions(state))
        assert total == pytest.approx(1.0)

    def test_transitions_memoised(self, fig3_model):
        state = (CacheEntry(1, 10),)
        assert fig3_model.transitions(state) is fig3_model.transitions(state)


class TestHardTimeouts:
    def test_hard_timeout_decrements_on_hit(self):
        from repro.flows.policy import ModelRule, Policy
        from repro.flows.universe import FlowUniverse
        from repro.flows.flowid import FlowId

        policy = Policy(
            [ModelRule(0, "hard", frozenset({0}), 6, 10, hard=True)]
        )
        universe = FlowUniverse((FlowId(src=0, dst=9),), (0.5,))
        model = BasicModel(policy, universe, DELTA, cache_size=1)
        state = (CacheEntry(0, 4),)
        succ = successors(model, state)
        assert (CacheEntry(0, 3),) in succ  # hit decrements, no reset


class TestDistributionEvolution:
    def test_mass_conserved(self, fig3_model):
        dist = fig3_model.distribution_after(30, prune=0.0)
        assert sum(dist.values()) == pytest.approx(1.0)

    def test_exclusion_substochastic(self, fig3_model):
        # Every step sheds exactly the excluded flow's arrival mass
        # (timeout-priority steps are scaled by the survival
        # probability), so the surviving mass is the geometric
        # (1 - p_f0)^T -- matching the compact model's construction.
        steps = 20
        dist = fig3_model.distribution_after(steps, exclude_flows=(0,),
                                             prune=0.0)
        rates = np.asarray(fig3_model.context.step_rates)
        p_f0 = rates[0] / (1.0 + rates.sum())
        mass = sum(dist.values())
        assert mass == pytest.approx((1.0 - p_f0) ** steps, rel=1e-12)

    def test_pruning_bounds_support(self, fig3_model):
        pruned = fig3_model.distribution_after(25, prune=1e-6)
        unpruned = fig3_model.distribution_after(25, prune=0.0)
        assert len(pruned) <= len(unpruned)
        # Pruning loses only a little mass.
        assert sum(pruned.values()) > 0.98

    def test_negative_steps_rejected(self, fig3_model):
        with pytest.raises(ValueError):
            fig3_model.evolve({(): 1.0}, -1)


class TestProjections:
    def test_state_rule_set(self):
        state = (CacheEntry(2, 5), CacheEntry(0, 1))
        assert BasicModel.state_rule_set(state) == frozenset({0, 2})

    def test_project_to_sets_sums(self, fig3_model):
        dist = fig3_model.distribution_after(15, prune=0.0)
        projected = fig3_model.project_to_sets(dist)
        assert sum(projected.values()) == pytest.approx(1.0)

    def test_rule_presence_marginals(self, fig3_model):
        dist = fig3_model.distribution_after(15, prune=0.0)
        marginals = fig3_model.rule_presence_marginals(dist)
        assert marginals.shape == (3,)
        assert (marginals >= 0).all() and (marginals <= 1).all()

    def test_state_covers_flow(self, fig3_model):
        state = (CacheEntry(1, 5),)
        assert fig3_model.state_covers_flow(state, 0)
        assert fig3_model.state_covers_flow(state, 1)
        assert not fig3_model.state_covers_flow(state, 2)


class TestReachableEnumeration:
    def test_small_model_enumerates(self):
        model = make_model([({0}, 2), ({1}, 3)], [0.3, 0.3], cache_size=1)
        states = model.enumerate_reachable()
        assert () in states
        assert len(states) == len(set(states))
        # All reachable states respect capacity.
        assert all(len(s) <= 1 for s in states)

    def test_cap_enforced(self, fig3_model):
        with pytest.raises(RuntimeError, match="exceeds"):
            fig3_model.enumerate_reachable(max_states=5)


class TestExplicitMatrix:
    def _tiny(self):
        return make_model([({0}, 2), ({1}, 3)], [0.3, 0.4], cache_size=1)

    def test_matrix_row_stochastic(self):
        from repro.core.chain import validate_stochastic

        model = self._tiny()
        states, matrix = model.transition_matrix()
        assert matrix.shape == (len(states), len(states))
        validate_stochastic(matrix)

    def test_excluded_matrix_substochastic(self):
        from repro.core.chain import validate_stochastic

        model = self._tiny()
        _, matrix = model.transition_matrix(exclude_flows=(0,))
        validate_stochastic(matrix, substochastic=True)

    def test_matrix_matches_dict_evolution(self):
        import numpy as np
        from repro.core.chain import evolve, point_distribution

        model = self._tiny()
        states, matrix = model.transition_matrix()
        start_index = states.index(())
        dense = evolve(point_distribution(len(states), start_index), matrix, 12)
        sparse_dist = model.distribution_after(12, prune=0.0)
        for index, state in enumerate(states):
            assert dense[index] == pytest.approx(
                sparse_dist.get(state, 0.0), abs=1e-12
            )

    def test_stationary_marginals_bounded(self):
        model = self._tiny()
        marginals = model.stationary_rule_marginals()
        assert marginals.shape == (2,)
        assert (marginals >= 0).all() and (marginals <= 1).all()
        # The busier flow's rule occupies the single slot more often.
        assert marginals[1] > marginals[0]

    def test_state_cap_respected(self):
        model = self._tiny()
        with pytest.raises(RuntimeError):
            model.transition_matrix(max_states=3)


class TestAgreementWithCompactModel:
    @pytest.mark.slow
    def test_rule_marginals_close(self):
        """Basic and compact models agree on P(rule cached) at T."""
        specs = [({0}, 5), ({0, 1}, 7), ({2}, 6)]
        rates = [0.25, 0.35, 0.3]
        basic = make_model(specs, rates, cache_size=2)
        compact = CompactModel(
            make_policy(specs), make_universe(rates), DELTA, 2
        )
        steps = 40
        basic_marginals = basic.rule_presence_marginals(
            basic.distribution_after(steps, prune=1e-10)
        )
        compact_marginals = compact.rule_presence_marginals(
            compact.distribution_after(steps)
        )
        assert np.abs(basic_marginals - compact_marginals).max() < 0.08
