"""Tests for the delay and proactive defenses against the live attack."""

import numpy as np
import pytest

from repro.countermeasures.delay import DelayDefense
from repro.countermeasures.proactive import ProactiveDefense
from repro.flows.config import ConfigGenerator
from repro.simulator.network import Network
from repro.simulator.probing import Prober

from tests.experiments.conftest import tiny_config_params


@pytest.fixture(scope="module")
def config():
    return ConfigGenerator(tiny_config_params(), seed=21).sample()


def build_network(config, defense=None, seed=0):
    return Network(
        config.concrete_rules,
        config.universe,
        cache_size=config.cache_size,
        rng=np.random.default_rng(seed),
        defense=defense,
    )


class TestDelayDefense:
    def test_hides_hit_latency(self, config):
        defense = DelayDefense(first_k=2)
        network = build_network(config, defense)
        prober = Prober(network)
        flow = config.universe.flows[config.target_flow]
        miss = prober.measure(flow)
        hit = prober.measure(flow)  # would be fast without the defense
        assert not miss.hit
        assert not hit.hit  # the defense pushed the hit over 1 ms

    def test_later_packets_undelayed(self, config):
        defense = DelayDefense(first_k=2)
        network = build_network(config, defense)
        prober = Prober(network)
        flow = config.universe.flows[config.target_flow]
        results = prober.measure_flows([flow] * 4)
        # Packets 3 and 4 of the burst are no longer delayed.
        assert results[2].hit
        assert results[3].hit

    def test_cost_accounting(self, config):
        defense = DelayDefense(first_k=2)
        network = build_network(config, defense)
        prober = Prober(network)
        flow = config.universe.flows[config.target_flow]
        prober.measure(flow)   # miss: counts as packet 1, no extra delay
        prober.measure(flow)   # hit: packet 2 <= first_k -> delayed
        assert defense.packets_delayed >= 1
        assert defense.delays_added > 0.0

    def test_miss_packet_consumes_budget(self, config):
        # With first_k=1 the miss packet itself is the "first" packet,
        # so no hit ever receives an artificial delay.
        defense = DelayDefense(first_k=1)
        network = build_network(config, defense)
        prober = Prober(network)
        flow = config.universe.flows[config.target_flow]
        prober.measure(flow)
        prober.measure(flow)
        assert defense.packets_delayed == 0

    def test_quiet_reset_reactivates(self, config):
        defense = DelayDefense(first_k=2)
        network = build_network(config, defense)
        prober = Prober(network)
        flow = config.universe.flows[config.target_flow]
        # Saturate the budget: miss + delayed hit + undelayed hit.
        prober.measure(flow)
        prober.measure(flow)
        prober.measure(flow)
        saturated_count = defense.packets_delayed
        # Go quiet.
        network.sim.run_until(network.sim.now + 2 * DelayDefense.QUIET_RESET)
        # After the quiet period the next packets count as "first" again;
        # within the first two, any cache hit is delayed.
        prober.measure(flow)
        prober.measure(flow)
        assert defense.packets_delayed > saturated_count

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            DelayDefense(first_k=0)


class TestProactiveDefense:
    def test_all_probes_hit(self, config):
        defense = ProactiveDefense()
        network = build_network(config, defense)
        prober = Prober(network)
        for flow_index in range(len(config.universe)):
            flow = config.universe.flows[flow_index]
            covered = bool(config.policy.covering(flow_index))
            result = prober.measure(flow)
            if covered:
                assert result.hit, f"flow {flow_index} should always hit"

    def test_rules_installed_permanently(self, config):
        defense = ProactiveDefense()
        network = build_network(config, defense)
        assert defense.rules_installed == len(config.policy)
        network.sim.run_until(30.0)  # far beyond every TTL
        table = network.ingress_switch.table
        for rule in config.concrete_rules:
            assert rule.name in table

    def test_controller_never_installs_reactively(self, config, obs):
        defense = ProactiveDefense()
        network = build_network(config, defense)
        prober = Prober(network)
        prober.measure(config.universe.flows[config.target_flow])
        assert obs.metrics.counter("sim.controller.installs").value == 0

    def test_side_channel_carries_no_information(self, config):
        # Same probe outcome regardless of prior traffic.
        from repro.flows.arrival import sample_schedule

        outcomes = []
        for seed in (1, 2):
            network = build_network(config, ProactiveDefense(), seed=seed)
            schedule = sample_schedule(
                config.universe,
                2.0,
                np.random.default_rng(seed),
            )
            network.schedule_arrivals(schedule)
            network.sim.run_until(2.0)
            prober = Prober(network)
            flow = config.universe.flows[config.target_flow]
            outcomes.append(prober.measure(flow).hit)
        assert outcomes[0] == outcomes[1] is True


class _ScriptedRng:
    """Stand-in generator yielding a scripted uniform sequence."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestDelayDefenseUnderRetries:
    """Regression: padding must survive probe retransmission (PR 4 path).

    A retransmitted probe re-sends the *same* probe id, so the defense
    must (a) recognise the retransmission and pad it on every attempt
    -- previously the padding budget was charged once and the retry
    sailed through unpadded, re-opening the timing channel whenever a
    reply was lost -- and (b) never charge the retransmission fresh
    ``first_k`` budget.
    """

    @pytest.fixture(autouse=True)
    def fixed_pad(self, monkeypatch):
        """A deterministic 10 ms pad, so a padded reply is plainly slow."""
        monkeypatch.setattr(DelayDefense, "DELAY_MEAN", 0.01)
        monkeypatch.setattr(DelayDefense, "DELAY_STD", 0.0)

    def build(self, config, reply_draws):
        from repro.faults import FaultInjector, FaultPlan

        defense = DelayDefense(first_k=2)
        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(0),
        )
        network.attach(
            defense,
            FaultInjector(
                FaultPlan(probe_reply_loss=0.5), rng=_ScriptedRng(reply_draws)
            ),
        )
        return network, defense

    def test_retransmitted_hit_is_padded_on_every_attempt(self, config):
        # Reply draws: miss reply kept, first hit reply eaten, its
        # retransmission's reply kept.
        network, defense = self.build(config, [0.9, 0.1, 0.9])
        prober = Prober(network, retries=1)
        flow = config.universe.flows[config.target_flow]
        prober.measure(flow)           # miss: burst slot 1, no padding
        result = prober.measure(flow)  # hit, retried once
        assert result.attempts == 2
        assert result.observed
        # The surviving attempt's RTT includes the 10 ms pad: the
        # defense still hides the hit even though the reply was lost.
        assert result.rtt >= 0.01
        assert not result.hit
        # Both attempts were padded (slot 2 <= first_k on each).
        assert defense.packets_delayed == 2

    def test_retransmission_consumes_no_fresh_budget(self, config):
        network, defense = self.build(config, [0.9, 0.1, 0.9, 0.9])
        prober = Prober(network, retries=1)
        flow = config.universe.flows[config.target_flow]
        prober.measure(flow)           # slot 1 (miss)
        prober.measure(flow)           # slot 2, retried: padded twice
        slots = defense._burst_slots[flow]
        assert sorted(slots.values()) == [1, 2]
        # A third distinct packet sits past first_k: the retransmission
        # did not steal its budget slot.
        third = prober.measure(flow)
        assert third.attempts == 1
        assert third.hit
        assert defense.packets_delayed == 2
