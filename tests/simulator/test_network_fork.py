"""``Network.fork``: an independent copy that continues exactly.

A fork taken at any point -- mid-window with background traffic still
streaming and a controller round trip in flight -- must run to the same
probe round-trip times as the network it was taken from would have,
and probing it must leave that network untouched.  Metric instruments
are shared, so a fork's counts reach the installed registry.
"""

import numpy as np
import pytest

from repro.countermeasures.delay import DelayDefense
from repro.experiments.trials import _trial_schedule
from repro.flows.config import ConfigGenerator, ConfigParams
from repro.obs import Instrumentation, use_instrumentation
from repro.simulator.network import Network
from repro.simulator.probing import Prober


@pytest.fixture(scope="module")
def config():
    return ConfigGenerator(ConfigParams(n_rules=14, cache_size=12), seed=23).sample()


def build(config, seed=5, defense=None):
    """A network with the config's background traffic scheduled."""
    network = Network(
        config.concrete_rules,
        config.universe,
        cache_size=config.cache_size,
        rng=np.random.default_rng(seed + 1),
        defense=defense,
    )
    network.schedule_arrivals(_trial_schedule(config, seed))
    return network


def probe_rtts(network, config, flows=(0, 3, 0, 7)):
    prober = Prober(network)
    return [
        prober.measure(config.universe.flows[flow]).rtt for flow in flows
    ]


def table_state(network):
    return {
        name: sorted(
            (entry.rule.name, entry.out_port, entry.install_time, entry.last_match)
            for entry in switch.table.entries
        )
        for name, switch in network.switches.items()
    }


def in_flight(network):
    """Whether a stream and a controller round trip are both pending."""
    streaming = any(stream.remaining for stream in network.sim._streams)
    buffered = any(switch._pending for switch in network.switches.values())
    return streaming and buffered


class TestForkMidWindow:
    def test_fork_runs_to_the_same_rtts_as_the_original(self, config):
        reference = build(config)
        cancelled = reference.sim.schedule_at(
            config.window_seconds / 2,
            reference.send_probe,
            config.universe.flows[1],
            999_999,
        )
        cancelled.cancel()
        reference.sim.run_until(config.window_seconds)
        expected = probe_rtts(reference, config)

        original = build(config)
        handle = original.sim.schedule_at(
            config.window_seconds / 2,
            original.send_probe,
            config.universe.flows[1],
            999_999,
        )
        while not in_flight(original):
            assert original.sim.step()
        assert original.sim.now < config.window_seconds / 2
        # Cancelled now, so the fork copies it as a cancelled heap entry.
        handle.cancel()
        assert any(event.cancelled for _, _, event in original.sim._queue)

        fork = original.fork()
        assert fork.sim.now == original.sim.now
        assert fork.sim.pending == original.sim.pending
        fork.sim.run_until(config.window_seconds)
        assert probe_rtts(fork, config) == expected

        original.sim.run_until(config.window_seconds)
        assert probe_rtts(original, config) == expected
        # The cancelled probe never fired on either copy.
        assert fork.probe_observation(999_999) is None
        assert original.probe_observation(999_999) is None

    def test_forks_at_every_event_kind_continue_exactly(self, config):
        # Fork whenever a kind of pending event not yet covered is in
        # flight: each such event must act on its fork, not on the
        # network the fork was taken from.
        reference = build(config)
        reference.sim.run_until(config.window_seconds)
        expected = probe_rtts(reference, config)

        kinds = {
            "receive",
            "deliver",
            "_host_receive",
            "send_from_host",
            "handle_packet_in",
            "_install_and_release",
            "handle_packet_out",
        }
        original = build(config)
        forks = []
        covered = set()
        while not kinds <= covered:
            assert original.sim.step()
            assert original.sim.now < config.window_seconds
            pending = {event.fn.__name__ for _, _, event in original.sim._queue}
            if pending - covered:
                covered |= pending
                forks.append(original.fork())
        for fork in forks:
            fork.sim.run_until(config.window_seconds)
            assert probe_rtts(fork, config) == expected

    def test_fork_copies_mutable_state_and_shares_build_products(self, config):
        network = build(config, defense=DelayDefense())
        network.sim.run_until(config.window_seconds)
        fork = network.fork()
        assert fork.sim is not network.sim
        assert fork.rng is not network.rng
        assert fork.defense is not network.defense
        assert fork.defense._network is fork
        for name, switch in fork.switches.items():
            assert switch.network is fork
            assert switch.table is not network.switches[name].table
        assert fork.controller.network is fork
        assert fork.topology is network.topology
        assert fork.policy_rules is network.policy_rules
        assert fork.hosts is network.hosts
        assert fork.universe is network.universe
        assert fork.latency is network.latency


class TestForkIsolation:
    def test_probing_a_fork_leaves_the_base_unchanged(self, config):
        base = build(config, defense=DelayDefense())
        base.sim.run_until(config.window_seconds)
        before = (
            table_state(base),
            base.sim.now,
            base.sim.events_run,
            base.sim.pending,
            base.rng.bit_generator.state,
            base.defense._rng.bit_generator.state,
            dict(base._probe_observations),
        )
        fork = base.fork()
        rtts = probe_rtts(fork, config)
        assert all(rtt is not None for rtt in rtts)
        assert fork.sim.now > base.sim.now
        after = (
            table_state(base),
            base.sim.now,
            base.sim.events_run,
            base.sim.pending,
            base.rng.bit_generator.state,
            base.defense._rng.bit_generator.state,
            dict(base._probe_observations),
        )
        assert after == before
        # The base still probes as if the fork had never run.
        assert probe_rtts(base, config) == rtts


class TestForkMetrics:
    def test_fork_counts_into_the_installed_registry(self, config):
        obs = Instrumentation()
        with use_instrumentation(obs):
            network = build(config)
            network.sim.run_until(config.window_seconds)
            hits = obs.metrics.counter("sim.table.hits")
            before = hits.value
            fork = network.fork()
            fork_table = fork.ingress_switch.table
            assert fork_table._obs_hits is hits
            probe_rtts(fork, config)
        assert hits.value > before
        assert (
            obs.metrics_document()["counters"]["sim.table.hits"]
            == hits.value
        )
