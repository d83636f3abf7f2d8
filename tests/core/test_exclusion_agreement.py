"""Basic vs compact agreement for target-excluded evolution.

The Section V-A inference runs the chain with the target's transitions
dropped, making the matrix substochastic: the mass shed by step ``t``
is the probability the excluded flow(s) arrived at least once.  Both
models implement this independently (the basic model over full cache
contents, the compact model over rule bitmasks), so this differential
suite pins three things to each other and to the closed form:

* per-step shed mass is exactly ``sum_f p_f`` of the excluded flows, so
  surviving mass after ``T`` steps is ``(1 - sum_f p_f)^T``;
* the two models agree on the surviving mass at every step;
* the surviving distributions agree after projecting basic states to
  rule sets — for ``multi_expiry`` both on (the per-state oracle,
  tests/oracles/perstate.py) and off (production).
"""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles.basic import BasicModel
from repro.core.compact_model import CompactModel
from repro.core.chain import per_flow_step_probabilities

from tests.conftest import make_policy, make_universe
from tests.oracles.perstate import PerStateCompactModel

DELTA = 0.2

#: (rule specs, rates, cache size, excluded flows) — the last rate
#: belongs to an uncovered flow in the settings that have one.
SETTINGS = [
    # Covered target, disjoint rules.
    ([({0}, 5), ({1}, 7)], [0.3, 0.5], 2, (0,)),
    # Covered target with priority overlap.
    ([({0}, 4), ({0, 1}, 8)], [0.4, 0.3], 2, (0,)),
    # Eviction pressure.
    ([({0}, 6), ({1}, 6), ({2}, 6)], [0.4, 0.4, 0.4], 2, (1,)),
    # Uncovered target: flow 2 has no covering rule.
    ([({0}, 5), ({1}, 6)], [0.3, 0.4, 0.5], 2, (2,)),
    # Multi-flow exclusion mixing covered and uncovered.
    ([({0}, 5), ({1}, 6)], [0.3, 0.4, 0.5], 2, (0, 2)),
    # Single slot, excluded flow fighting for it.
    ([({0}, 4), ({1}, 9)], [0.6, 0.2], 1, (0,)),
]

STEPS = 12


def _models(specs, rates, cache_size, multi_expiry):
    policy = make_policy(specs)
    universe = make_universe(rates)
    basic = BasicModel(policy, universe, DELTA, cache_size)
    if multi_expiry:
        compact = PerStateCompactModel(
            policy, universe, DELTA, cache_size, multi_expiry=True
        )
    else:
        compact = CompactModel(policy, universe, DELTA, cache_size)
    return basic, compact


def _excluded_step_probability(universe, excluded):
    p_flows, _ = per_flow_step_probabilities(
        np.asarray(universe.rates) * DELTA
    )
    return float(sum(p_flows[f] for f in excluded))


@pytest.mark.parametrize("multi_expiry", [False, True])
@pytest.mark.parametrize("specs,rates,cache_size,excluded", SETTINGS)
def test_surviving_mass_matches_closed_form(
    specs, rates, cache_size, excluded, multi_expiry
):
    basic, compact = _models(specs, rates, cache_size, multi_expiry)
    p_excl = _excluded_step_probability(basic.context.universe, excluded)
    basic_dist = basic.initial_distribution()
    compact_dist = compact.initial_distribution()
    compact_matrix = compact.transition_matrix(exclude_flows=excluded)
    for step in range(1, STEPS + 1):
        basic_dist = basic.evolve(
            basic_dist, 1, exclude_flows=excluded, prune=0.0
        )
        compact_dist = np.asarray(compact_dist @ compact_matrix)
        expected = (1.0 - p_excl) ** step
        basic_mass = sum(basic_dist.values())
        compact_mass = float(compact_dist.sum())
        assert basic_mass == pytest.approx(expected, rel=1e-10), step
        assert compact_mass == pytest.approx(expected, rel=1e-10), step


@pytest.mark.parametrize("multi_expiry", [False, True])
@pytest.mark.parametrize("specs,rates,cache_size,excluded", SETTINGS)
def test_models_agree_on_surviving_marginals(
    specs, rates, cache_size, excluded, multi_expiry
):
    """Rule-presence marginals of the surviving mass track each other.

    The basic model keeps expiry countdowns the compact model abstracts
    away, so the surviving *distributions* only agree approximately —
    but on these tiny universes the recency estimator is near-exact and
    the marginals must match to a loose tolerance, while total mass
    matches tightly (covered by the closed-form test above).
    """
    basic, compact = _models(specs, rates, cache_size, multi_expiry)
    basic_final = basic.distribution_after(
        STEPS, exclude_flows=excluded, prune=0.0
    )
    compact_final = compact.power_chain(excluded).advance(STEPS)
    basic_marginals = basic.rule_presence_marginals(basic_final)
    compact_marginals = compact.rule_presence_marginals(compact_final)
    assert basic_marginals == pytest.approx(compact_marginals, abs=0.05)


@pytest.mark.parametrize("specs,rates,cache_size,excluded", SETTINGS[:3])
def test_exclusion_only_sheds_mass(specs, rates, cache_size, excluded):
    """Excluding flows never *adds* probability to any basic state."""
    basic, _ = _models(specs, rates, cache_size, False)
    plain = basic.distribution_after(STEPS, prune=0.0)
    substochastic = basic.distribution_after(
        STEPS, exclude_flows=excluded, prune=0.0
    )
    for state, mass in substochastic.items():
        assert mass <= plain.get(state, 0.0) + 1e-12


def test_empty_exclusion_is_stochastic():
    basic, compact = _models([({0}, 5), ({1}, 7)], [0.3, 0.5], 2, False)
    basic_dist = basic.distribution_after(STEPS, prune=0.0)
    compact_dist = compact.distribution_after(STEPS)
    assert sum(basic_dist.values()) == pytest.approx(1.0, abs=1e-12)
    assert float(compact_dist.sum()) == pytest.approx(1.0, abs=1e-12)
