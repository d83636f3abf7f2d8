"""Differential suite: the dense probe-outcome path ≡ the dict walk.

The engine (`repro.core.engine.ProbeScoringEngine`), the outcome tables
(`ReconInference.outcome_table`) and adaptive sessions read cached
dense per-outcome state rows.  These tests pin them to the dict
frontier walk they replaced (`tests/oracles/probes.py`): same chosen
probes, gains and table entries within 1e-12, across randomized
policies, cache sizes, windows, and exclusion sets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveSession
from repro.core.compact_model import CompactModel
from repro.core.engine import ProbeScoringEngine
from repro.core.inference import ReconInference
from repro.core.selection import best_probe_set, best_single_probe
from repro.obs import Instrumentation, use_instrumentation
from tests.conftest import make_policy, make_universe
from tests.oracles.perstate import PerStateCompactModel
from tests.oracles.probes import (
    DictSession,
    best_probe_set_serial,
    best_single_probe_serial,
    walk_information_gain,
    walk_outcome_table,
    walk_probes,
)

ATOL = 1e-12

#: ≥ 20 randomized configurations (acceptance criterion).
SEEDS = list(range(24))


def random_setup(seed: int):
    """One random tiny configuration: (model, target, window_steps)."""
    rng = np.random.default_rng(1000 + seed)
    n_flows = int(rng.integers(3, 7))
    n_rules = int(rng.integers(2, 5))
    rates = rng.uniform(0.05, 1.2, size=n_flows)

    universe = make_universe(rates)
    specs = []
    for _ in range(n_rules):
        size = int(rng.integers(1, n_flows + 1))
        covered = set(
            int(f) for f in rng.choice(n_flows, size=size, replace=False)
        )
        timeout = int(rng.integers(3, 9))
        specs.append((covered, timeout))
    policy = make_policy(specs)

    cache_size = int(rng.integers(1, min(3, n_rules) + 1))
    window_steps = int(rng.integers(5, 26))
    delta = float(rng.uniform(0.02, 0.1))
    if seed % 2:
        model = PerStateCompactModel(
            policy, universe, delta, cache_size, multi_expiry=True
        )
    else:
        model = CompactModel(policy, universe, delta, cache_size)
    target = int(rng.integers(n_flows))
    return model, target, window_steps


def outcome_index(outcome):
    """Map an outcome tuple to its prefix-distribution row (MSB-first)."""
    index = 0
    for bit in outcome:
        index = (index << 1) | bit
    return index


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_serial(seed):
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    serial_inf = ReconInference(model, target, window)
    engine_inf = ReconInference(model, target, window)

    serial = best_single_probe_serial(serial_inf)
    fast = best_single_probe(engine_inf)
    assert fast.probes == serial.probes
    assert fast.gain == pytest.approx(serial.gain, abs=ATOL)

    for method in ("exhaustive", "greedy"):
        serial_set = best_probe_set_serial(serial_inf, 2, method=method)
        fast_set = best_probe_set(engine_inf, 2, method=method)
        assert fast_set.probes == serial_set.probes, method
        assert fast_set.gain == pytest.approx(serial_set.gain, abs=ATOL)

    if n_flows >= 4:
        serial_three = best_probe_set_serial(serial_inf, 3, method="greedy")
        fast_three = best_probe_set(engine_inf, 3, method="greedy")
        assert fast_three.probes == serial_three.probes
        assert fast_three.gain == pytest.approx(serial_three.gain, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS[:12])
def test_engine_matches_serial_restricted_candidates(seed):
    """Candidate subsets (the constrained attacker's case) also agree."""
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    candidates = [f for f in range(n_flows) if f != target]
    serial_inf = ReconInference(model, target, window)
    engine_inf = ReconInference(model, target, window)

    serial = best_single_probe_serial(serial_inf, candidates)
    fast = best_single_probe(engine_inf, candidates=candidates)
    assert fast.probes == serial.probes
    assert fast.gain == pytest.approx(serial.gain, abs=ATOL)

    if len(candidates) >= 2:
        serial_set = best_probe_set_serial(serial_inf, 2, candidates)
        fast_set = best_probe_set(engine_inf, 2, candidates=candidates)
        assert fast_set.probes == serial_set.probes
        assert fast_set.gain == pytest.approx(serial_set.gain, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_prefix_distribution_matches_walk(seed):
    """Cached prefix rows ≡ the dict frontier walk, outcome by outcome.

    Covers the empty exclusion, the target exclusion, and an arbitrary
    two-flow exclusion set -- the full keying of the shared cache.
    """
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    inference = ReconInference(model, target, window)
    rng = np.random.default_rng(5000 + seed)
    prefix = tuple(
        int(f) for f in rng.choice(n_flows, size=min(3, n_flows), replace=False)
    )
    exclusions = [(), (target,), tuple(sorted({target, (target + 1) % n_flows}))]
    for exclusion in exclusions:
        base = inference.evolution(exclusion)
        weights = {
            model.states[i]: float(base[i])
            for i in np.nonzero(base > 1e-15)[0]
        }
        expected = walk_probes(model, weights, prefix)
        rows = inference.prefix_distribution(prefix, exclusion=exclusion)
        assert rows.shape == (2 ** len(prefix), model.n_states)
        row_masses = rows.sum(axis=1)
        for outcome, mass in expected.items():
            assert row_masses[outcome_index(outcome)] == pytest.approx(
                mass, abs=ATOL
            )
        # Rows without a dict entry carry (at most pruning-level) mass.
        seen = {outcome_index(outcome) for outcome in expected}
        for row in range(rows.shape[0]):
            if row not in seen:
                assert row_masses[row] == pytest.approx(0.0, abs=ATOL)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_sequence_gain_matches_information_gain(seed):
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    inference = ReconInference(model, target, window)
    engine = ProbeScoringEngine(inference)
    rng = np.random.default_rng(9000 + seed)
    for length in (1, 2, 3):
        probes = tuple(
            int(f)
            for f in rng.choice(n_flows, size=min(length, n_flows), replace=False)
        )
        # One arithmetic: equal bit for bit, not merely close.
        gain = engine.score_tails(probes[:-1], probes[-1:])[0]
        assert float(gain) == inference.information_gain(probes)


@pytest.mark.parametrize("seed", SEEDS)
def test_outcome_table_matches_walk(seed):
    """Dense outcome tables ≡ the oracle's two dict walks, m = 1..3."""
    model, target, window = random_setup(seed)
    n_flows = model.context.n_flows
    inference = ReconInference(model, target, window)
    rng = np.random.default_rng(7000 + seed)
    for length in (1, 2, 3):
        probes = tuple(
            int(f) for f in rng.choice(n_flows, size=length, replace=True)
        )
        table = inference.outcome_table(probes)
        expected = walk_outcome_table(inference, probes)
        for got, want in (
            (table.outcome_probs, expected.outcome_probs),
            (table.joint_absent, expected.joint_absent),
        ):
            for outcome in set(got) | set(want):
                assert got.get(outcome, 0.0) == pytest.approx(
                    want.get(outcome, 0.0), abs=ATOL
                ), (probes, outcome)
        assert inference.information_gain(probes) == pytest.approx(
            walk_information_gain(inference, probes), abs=ATOL
        )


def _adaptive_paths(dense, oracle, budget):
    """Walk every outcome path of both sessions in lockstep; count leaves."""
    assert dense.history == oracle.history
    assert dense.posterior_absent() == pytest.approx(
        oracle.posterior_absent(), abs=ATOL
    )
    if len(dense.history) == budget:
        return 1
    flow = dense.next_probe()
    assert flow == oracle.next_probe(), dense.history
    if flow is None:
        return 1
    leaves = 0
    for bit in (0, 1):
        dense_child = AdaptiveSession(dense.inference, max_probes=budget)
        dense_child._weights_full = dense._weights_full
        dense_child._weights_absent = dense._weights_absent
        dense_child.history = list(dense.history)
        dense_child._pending_flow = flow
        dense_child.observe(bit)
        oracle_child = DictSession(dense.inference, oracle.candidates)
        oracle_child._weights_full = dict(oracle._weights_full)
        oracle_child._weights_absent = dict(oracle._weights_absent)
        oracle_child.history = list(oracle.history)
        oracle_child.observe(flow, bit)
        if oracle_child.evidence_mass <= 0.0:
            assert dense_child.evidence_mass == 0.0
            continue
        leaves += _adaptive_paths(dense_child, oracle_child, budget)
    return leaves


@pytest.mark.parametrize("seed", SEEDS)
def test_adaptive_session_matches_dict_session(seed):
    """Every outcome path of a 3-probe budget: same probes, same posteriors."""
    model, target, window = random_setup(seed)
    inference = ReconInference(model, target, window)
    candidates = range(model.context.n_flows)
    dense = AdaptiveSession(inference, max_probes=3)
    oracle = DictSession(inference, candidates)
    assert _adaptive_paths(dense, oracle, 3) >= 1


def eviction_setup():
    """Three single-flow rules, cache 2: a covered miss on a full cache evicts.

    In ``(f2, f0)`` the first probe misses on a full ``{r0, r1}`` cache,
    installs r2 and evicts r0 or r1; the second probe hits only if r0
    survived.  Unequal rates and timeouts keep every eviction split far
    from 1/2, so the outcome tables depend on which way it goes -- the
    random models above rarely fill their caches.
    """
    policy = make_policy([({0}, 4), ({1}, 9), ({2}, 6)])
    universe = make_universe([0.9, 0.4, 0.7])
    model = CompactModel(policy, universe, 0.2, 2)
    return ReconInference(model, 1, 30)


def test_eviction_setup_is_eviction_sensitive():
    inference = eviction_setup()
    model = inference.model
    base = inference.evolution(())
    full = [i for i, state in enumerate(model.states) if state in (3, 5, 6)]
    assert base[full].sum() > 0.3
    splits = model.recency_tables().evict_probs
    assert np.all(np.abs(splits - 0.5) > 0.15)


@pytest.mark.parametrize("probes", [(2, 0), (2, 1), (0, 2, 1), (1, 2, 0)])
def test_eviction_outcome_table_matches_walk(probes):
    inference = eviction_setup()
    table = inference.outcome_table(probes)
    expected = walk_outcome_table(inference, probes)
    for got, want in (
        (table.outcome_probs, expected.outcome_probs),
        (table.joint_absent, expected.joint_absent),
    ):
        for outcome in set(got) | set(want):
            assert got.get(outcome, 0.0) == pytest.approx(
                want.get(outcome, 0.0), abs=ATOL
            ), (probes, outcome)


def test_eviction_adaptive_session_matches_dict_session():
    inference = eviction_setup()
    candidates = range(inference.model.context.n_flows)
    dense = AdaptiveSession(inference, max_probes=3)
    oracle = DictSession(inference, candidates)
    assert _adaptive_paths(dense, oracle, 3) > 2


def test_stats_populated(obs):
    model, target, window = random_setup(0)
    inference = ReconInference(model, target, window)
    choice = best_probe_set(inference, 2, method="exhaustive")
    counter = obs.metrics.counter
    # full + target-excluded, shared after
    assert counter("engine.evolutions").value == 2
    assert counter("engine.sequences_scored").value > 0
    assert counter("engine.batches").value > 0
    assert counter("engine.cache.misses").value > 0
    hits = counter("engine.cache.hits").value
    # A second selection on the same inference reuses the caches.
    engine = ProbeScoringEngine(inference)
    again = engine.best_set(2, method="exhaustive")
    assert counter("engine.evolutions").value == 2
    assert counter("engine.cache.hits").value > hits
    assert again[0] == choice.probes


def test_shared_engine_across_calls():
    """One engine serves several selections (and keeps its counters)."""
    model, target, window = random_setup(3)
    inference = ReconInference(model, target, window)
    # The engine resolves its counters at construction, so only this
    # engine's scoring lands in this backend.
    backend = Instrumentation()
    with use_instrumentation(backend):
        engine = ProbeScoringEngine(inference)
    scored = backend.metrics.counter("engine.sequences_scored")
    single, _ = engine.best_single(None)
    assert single == best_single_probe(inference).probes
    assert scored.value == model.context.n_flows
    engine.best_set(2, None)
    assert scored.value > model.context.n_flows
