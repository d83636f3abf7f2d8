"""Cross-model agreement sweep over randomly generated tiny policies.

The single handcrafted agreement checks elsewhere are extended here to
a parameterised sweep: for several random policies, the compact model's
rule-presence marginals must track (a) the basic model's exact
evolution and (b) empirical trace replay.  These are the tests that
catch semantic drift between the three implementations of the same
switch.
"""

import numpy as np
import pytest

from tests.oracles.basic import BasicModel
from repro.core.compact_model import CompactModel
from repro.core.masks import mask_from_indices
from repro.flows.arrival import sample_schedule

from tests.conftest import make_policy, make_universe

DELTA = 0.25

#: (rule specs, rates, cache size) — structurally diverse tiny settings.
SETTINGS = [
    # Disjoint rules, no eviction pressure.
    ([({0}, 5), ({1}, 7)], [0.3, 0.5, 0.2], 2),
    # Overlap with priority shadowing (Figure 2b).
    ([({0}, 4), ({0, 1}, 8)], [0.4, 0.3, 0.6], 2),
    # Eviction pressure: three rules, two slots.
    ([({0}, 6), ({1}, 6), ({2}, 6)], [0.4, 0.4, 0.4], 2),
    # Heavy overlap chain.
    ([({0}, 5), ({0, 1}, 6), ({1, 2}, 7)], [0.25, 0.35, 0.45], 2),
    # Single slot: pure replacement dynamics.
    ([({0}, 4), ({1}, 9)], [0.6, 0.2], 1),
]


def _simulate_marginals(compact, steps, n_trials, seed):
    ctx = compact.context
    rng = np.random.default_rng(seed)
    horizon = steps * ctx.delta
    counts = np.zeros(ctx.n_rules)
    timeouts = {r.index: r.timeout_steps * ctx.delta for r in ctx.policy}
    for _ in range(n_trials):
        cache = {}
        for arrival in sample_schedule(ctx.universe, horizon, rng):
            now = arrival.time
            cache = {r: e for r, e in cache.items() if e > now}
            matched = ctx.match_in_cache(
                arrival.flow_index, mask_from_indices(cache)
            )
            if matched is not None:
                cache[matched] = now + timeouts[matched]
                continue
            install = ctx.install_rule[arrival.flow_index]
            if install is None:
                continue
            if len(cache) >= ctx.cache_size:
                del cache[min(cache, key=cache.get)]
            cache[install] = now + timeouts[install]
        for rule, expiry in cache.items():
            if expiry > horizon:
                counts[rule] += 1
    return counts / n_trials


@pytest.mark.slow
@pytest.mark.parametrize("specs,rates,cache_size", SETTINGS)
def test_compact_tracks_basic(specs, rates, cache_size):
    steps = 40
    basic = BasicModel(make_policy(specs), make_universe(rates), DELTA,
                       cache_size)
    compact = CompactModel(make_policy(specs), make_universe(rates), DELTA,
                           cache_size)
    basic_marginals = basic.rule_presence_marginals(
        basic.distribution_after(steps, prune=1e-10)
    )
    compact_marginals = compact.rule_presence_marginals(
        compact.distribution_after(steps)
    )
    assert np.abs(basic_marginals - compact_marginals).max() < 0.10


@pytest.mark.slow
@pytest.mark.parametrize("specs,rates,cache_size", SETTINGS)
def test_compact_tracks_trace_replay(specs, rates, cache_size):
    steps = 60
    compact = CompactModel(make_policy(specs), make_universe(rates), DELTA,
                           cache_size)
    predicted = compact.rule_presence_marginals(
        compact.distribution_after(steps)
    )
    empirical = _simulate_marginals(compact, steps, n_trials=3000, seed=11)
    # The coarse DELTA used here costs a few percent of fidelity (see
    # the delta-ablation benchmark); the bound reflects that.
    assert np.abs(predicted - empirical).max() < 0.08
