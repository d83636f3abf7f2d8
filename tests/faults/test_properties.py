"""Property-based fault-layer guarantees (the tentpole's lock-in).

Two properties, over randomised plans and trial seeds:

1. **Determinism** -- a seeded :class:`FaultPlan` makes the whole trial
   a pure function of ``(config, plan, seed)``: running it twice yields
   identical ground truth, decisions, and outcome vectors.
2. **Differential** -- an all-zero plan (and ``FaultPlan.none()``) is
   byte-identical to passing no plan at all, so attaching the fault
   layer cannot perturb the paper pipeline unless faults are actually
   requested.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attacker import NaiveAttacker
from repro.experiments.trials import run_trial
from repro.faults import FaultInjector, FaultPlan
from repro.flows.config import ConfigGenerator

from tests.experiments.conftest import tiny_config_params
from tests.faults.conftest import counting_injector, injected

#: One tiny sampled world, shared by every example (sampling is ~the
#: whole cost of a table trial at this scale).
CONFIG = ConfigGenerator(tiny_config_params(), seed=5).sample()

rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

plans = st.builds(
    FaultPlan,
    packet_in_loss=rates,
    flow_mod_loss=rates,
    probe_reply_loss=rates,
    controller_jitter=st.floats(min_value=0.0, max_value=0.01),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)

trial_seeds = st.integers(min_value=0, max_value=2**31 - 1)
retry_budgets = st.integers(min_value=0, max_value=3)


def _attackers():
    return [NaiveAttacker(CONFIG.target_flow)]


@settings(max_examples=25, deadline=None)
@given(plan=plans, seed=trial_seeds, retries=retry_budgets)
def test_faulty_table_trial_is_deterministic(plan, seed, retries):
    first = run_trial(
        CONFIG, _attackers(), seed, mode="table",
        fault_plan=plan, probe_retries=retries,
    )
    second = run_trial(
        CONFIG, _attackers(), seed, mode="table",
        fault_plan=plan, probe_retries=retries,
    )
    assert first == second


@settings(max_examples=25, deadline=None)
@given(seed=trial_seeds, fault_seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_zero_rate_plan_identical_to_no_plan_table(seed, fault_seed):
    plan = FaultPlan(seed=fault_seed)
    bare = run_trial(CONFIG, _attackers(), seed, mode="table")
    planned = run_trial(
        CONFIG, _attackers(), seed, mode="table", fault_plan=plan
    )
    assert bare == planned


@settings(max_examples=20, deadline=None)
@given(plan=plans, n=st.integers(min_value=1, max_value=64))
def test_injector_stream_is_seed_deterministic(plan, n):
    first, first_backend = counting_injector(plan)
    second, second_backend = counting_injector(plan)
    for index in range(n):
        assert first.drop_packet_in() == second.drop_packet_in()
        assert first.drop_flow_mod() == second.drop_flow_mod()
        assert first.drop_probe_reply() == second.drop_probe_reply()
        assert first.controller_extra_delay(
            float(index)
        ) == second.controller_extra_delay(float(index))
    assert injected(first_backend) == injected(second_backend)


def test_faulty_network_trial_is_deterministic():
    plan = FaultPlan(
        packet_in_loss=0.3, probe_reply_loss=0.2, controller_jitter=0.002,
        seed=17,
    )
    for seed in range(3):
        first = run_trial(
            CONFIG, _attackers(), seed, fault_plan=plan, probe_retries=1
        )
        second = run_trial(
            CONFIG, _attackers(), seed, fault_plan=plan, probe_retries=1
        )
        assert first == second


def test_zero_rate_plan_identical_to_no_plan_network():
    plan = FaultPlan.none()
    for seed in range(3):
        bare = run_trial(CONFIG, _attackers(), seed)
        planned = run_trial(CONFIG, _attackers(), seed, fault_plan=plan)
        assert bare == planned


def test_fault_stream_never_perturbs_network_rng():
    # An active injector draws only from its own generator: attaching
    # one must leave the network's latency/arrival RNG stream intact.
    plan = FaultPlan(probe_reply_loss=1.0, seed=1)
    bare = run_trial(CONFIG, _attackers(), seed=7)
    faulty = run_trial(CONFIG, _attackers(), seed=7, fault_plan=plan)
    # Same world: ground truth (a function of the schedule) matches even
    # though every probe reply was eaten.
    assert faulty.ground_truth == bare.ground_truth
    assert faulty.outcomes["naive"] == (None,)


def test_injected_generator_override():
    plan = FaultPlan(packet_in_loss=0.5, seed=123)
    default = FaultInjector(plan)
    explicit = FaultInjector(plan, rng=np.random.default_rng(123))
    assert [default.drop_packet_in() for _ in range(32)] == [
        explicit.drop_packet_in() for _ in range(32)
    ]
