"""Network-mode trials fork one template network per configuration.

``_window_world`` builds each configuration's network once (no defense,
no injector, never run), and every trial forks it, reseeds the fork
with ``default_rng(seed + 1)`` and attaches its own defense and fault
injector.  The pins:

* that fork equals a fresh ``Network(...)`` built with the trial's
  arguments -- tables in install order, simulator sequence numbers,
  probe RTTs and bits -- with and without defenses and faults;
* running trials leaves the template untouched;
* a template built under one instrumentation backend never counts into
  another;
* the template memo stays within its bound.
"""

import copy

import numpy as np
import pytest

from repro.countermeasures.delay import DelayDefense
from repro.countermeasures.proactive import ProactiveDefense
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness
from repro.faults import FaultPlan
from repro.flows.config import ConfigGenerator, ConfigParams
from repro.memo import BoundedMemo
from repro.obs import Instrumentation, use_instrumentation
from repro.simulator.network import Network
from repro.simulator.probing import Prober
from repro.simulator.timing import LatencyModel

from tests import oracles
from tests.experiments.conftest import tiny_config_params, tiny_experiment_params

SEED = 41
PROBES = (0, 3, 0, 7, 5)

FAULT_PLANS = {
    "packet_in_loss": FaultPlan(packet_in_loss=0.3, seed=2),
    "flow_mod_loss": FaultPlan(flow_mod_loss=0.3, seed=2),
    "probe_reply_loss": FaultPlan(probe_reply_loss=0.3, seed=2),
    "controller_jitter": FaultPlan(controller_jitter=2e-3, seed=2),
    "outage": FaultPlan(outage_rate=0.2, outage_duration=0.05, seed=2),
}

#: (defense factory, fault plan) per case.
CASES = {
    "bare": (None, None),
    "delay": (DelayDefense, None),
    "proactive": (ProactiveDefense, None),
    **{kind: (None, plan) for kind, plan in FAULT_PLANS.items()},
    "delay+faults": (
        DelayDefense,
        FaultPlan(packet_in_loss=0.1, probe_reply_loss=0.2, seed=4),
    ),
}


@pytest.fixture(scope="module")
def config():
    return ConfigGenerator(
        ConfigParams(n_rules=14, cache_size=12), seed=23
    ).sample()


@pytest.fixture
def fresh_memo(monkeypatch):
    memo = BoundedMemo(trials.MAX_TEMPLATES)
    monkeypatch.setattr(trials, "_TEMPLATES", memo)
    return memo


def tables(network):
    """Every switch's entries in install order, timers and capacity."""
    return {
        name: (
            switch.table.capacity,
            [
                (e.rule, e.out_port, e.install_time, e.last_match)
                for e in switch.table._entries.values()
            ],
        )
        for name, switch in network.switches.items()
    }


def run_window(network, config, seed=SEED):
    network.schedule_arrivals(trials._trial_schedule(config, seed))
    network.sim.run_until(config.window_seconds)


def probe(network, config):
    prober = Prober(network, retries=1)
    flows = [config.universe.flows[flow] for flow in PROBES]
    rtts = [prober.measure(flow).rtt for flow in flows]
    bits = prober.outcomes(flows)
    return rtts, bits


class TestForkEqualsFreshBuild:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_reseeded_template_fork_equals_fresh_network(
        self, config, case, fresh_memo
    ):
        defense, plan = CASES[case]

        def extras():
            return (
                defense() if defense is not None else None,
                trials._trial_injector(plan, SEED),
            )

        fresh_defense, fresh_faults = extras()
        fresh = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(SEED + 1),
            defense=fresh_defense,
            faults=fresh_faults,
        )
        fork = trials._network_template(config, None).fork()
        fork.reseed(np.random.default_rng(SEED + 1))
        fork.attach(*extras())

        assert tables(fork) == tables(fresh)
        assert fork.sim._seq == fresh.sim._seq
        assert fork.proactive_defense_active == fresh.proactive_defense_active
        for network in (fresh, fork):
            run_window(network, config)
        assert tables(fork) == tables(fresh)
        assert fork.sim._seq == fresh.sim._seq
        assert fork.sim.events_run == fresh.sim.events_run
        assert probe(fork, config) == probe(fresh, config)
        assert fork.sim._seq == fresh.sim._seq
        assert (
            fork.rng.bit_generator.state == fresh.rng.bit_generator.state
        )

    def test_window_world_matches_a_fresh_build(self, config, fresh_memo):
        schedule = trials._trial_schedule(config, SEED)
        plan = FAULT_PLANS["probe_reply_loss"]
        window = trials._window_world(
            config,
            schedule,
            SEED,
            "network",
            defense=DelayDefense(),
            faults=trials._trial_injector(plan, SEED),
        )
        fresh = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(SEED + 1),
            defense=DelayDefense(),
            faults=trials._trial_injector(plan, SEED),
        )
        run_window(fresh, config)
        assert tables(window.world) == tables(fresh)
        assert probe(window.world, config) == probe(fresh, config)

    def test_attach_once_and_reseed_only_unrun(self, config, fresh_memo):
        network = trials._network_template(config, None).fork()
        network.attach(DelayDefense())
        with pytest.raises(ValueError, match="already attached"):
            network.attach(DelayDefense())
        run_window(network, config)
        with pytest.raises(ValueError, match="not run"):
            network.reseed(np.random.default_rng(0))


class TestTemplateIsolation:
    def test_trials_leave_the_template_unchanged(self, fresh_memo):
        params = tiny_experiment_params(trial_mode="network")
        harness = ConfigHarness.sample(params)
        config = harness.config
        template = trials._network_template(config, None)
        before = (
            copy.deepcopy(tables(template)),
            template.sim.now,
            template.sim._seq,
            template.sim.events_run,
            template.rng.bit_generator.state,
            template.normals._cursor,
            template.defense,
            template.faults,
        )
        for seed in range(3):
            trials.run_trial(
                config,
                harness.attackers(),
                seed,
                mode="network",
                defense_factory=ProactiveDefense if seed == 1 else DelayDefense,
                fault_plan=FAULT_PLANS["flow_mod_loss"],
                probe_retries=1,
            )
        assert trials._network_template(config, None) is template
        after = (
            tables(template),
            template.sim.now,
            template.sim._seq,
            template.sim.events_run,
            template.rng.bit_generator.state,
            template.normals._cursor,
            template.defense,
            template.faults,
        )
        assert after == before

    def test_template_never_counts_into_another_backend(self, fresh_memo):
        config = ConfigGenerator(tiny_config_params(), seed=3).sample()
        lineup = ConfigHarness(
            config, tiny_experiment_params(trial_mode="network")
        ).attackers()[:3]

        def sim_counts(backend):
            counters = backend.metrics.to_document()["counters"]
            return {
                name: value
                for name, value in counters.items()
                if value and name.startswith("sim.")
            }

        first, second = Instrumentation(), Instrumentation()
        with use_instrumentation(first):
            template = trials._network_template(config, None)
            assert trials._network_template(config, None) is template
        with use_instrumentation(second):
            assert trials._network_template(config, None) is not template
            trials.run_trial(config, lineup, 5, mode="network")
        assert not sim_counts(first)
        assert sim_counts(second)["sim.network.host_sends"] > 0

    def test_oracle_pipeline_builds_oracle_templates(self, fresh_memo):
        config = ConfigGenerator(tiny_config_params(), seed=3).sample()
        production = trials._network_template(config, None)
        with oracles.oracle_pipeline():
            template = trials._network_template(config, None)
            assert template is not production
            assert all(
                isinstance(node.table, oracles.ReferenceFlowTable)
                for node in template.switches.values()
            )
        assert trials._network_template(config, None) is production


class TestTemplateMemo:
    def test_bound_holds_and_evicts_least_recent(self, fresh_memo):
        configs = [
            ConfigGenerator(tiny_config_params(), seed=seed).sample()
            for seed in range(trials.MAX_TEMPLATES + 3)
        ]
        built = [trials._network_template(c, None) for c in configs]
        assert len(fresh_memo) == trials.MAX_TEMPLATES
        # The newest templates are kept, the oldest were evicted.
        assert trials._network_template(configs[-1], None) is built[-1]
        assert trials._network_template(configs[0], None) is not built[0]
        assert len(fresh_memo) == trials.MAX_TEMPLATES

    def test_one_template_per_latency_model(self, config, fresh_memo):
        calibrated = trials._network_template(config, None)
        scaled = trials._network_template(config, LatencyModel().scaled(2.0))
        assert scaled is not calibrated
        assert scaled.latency == LatencyModel().scaled(2.0)
        assert (
            trials._network_template(config, LatencyModel().scaled(2.0))
            is scaled
        )
