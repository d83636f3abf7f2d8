"""Prober behaviour under fault injection: timeouts, retries, backoff.

Covers the previously untested unobserved branch (``ProbeResult.rtt is
None`` / ``Network.probe_observation`` returning ``None``) and pins the
satellite fix: unanswered probes surface as ``None`` in ``outcomes()``
instead of being silently coerced to a miss.
"""

import numpy as np
import pytest

from repro.faults import FaultInjector, FaultPlan
from repro.flows.flowid import FlowId, str_to_ip
from repro.flows.rules import Match, Rule
from repro.flows.universe import FlowUniverse
from repro.obs import Instrumentation, use_instrumentation
from repro.simulator.network import Network
from repro.simulator.probing import ProbeResult, Prober
from repro.simulator.topology import linear_topology


def make_network(faults=None):
    base = str_to_ip("10.0.1.0")
    server = str_to_ip("10.0.1.16")
    flows = tuple(FlowId(src=base + i, dst=server) for i in range(3))
    universe = FlowUniverse(flows, (0.0, 0.0, 0.0))
    rules = [
        Rule(
            name=f"r{i}",
            src=Match.exact(base + i),
            dst=Match.exact(server),
            priority=900 + i,
            idle_timeout=2.0,
        )
        for i in range(3)
    ]
    network = Network(
        rules,
        universe,
        cache_size=3,
        topology=linear_topology(3),
        rng=np.random.default_rng(1),
    )
    network.attach(None, faults)
    return network


class _ScriptedRng:
    """Stand-in generator yielding a scripted uniform sequence."""

    def __init__(self, draws):
        self._draws = list(draws)

    def random(self):
        return self._draws.pop(0)


class TestUnobservedProbes:
    def test_probe_reply_loss_surfaces_unobserved(self):
        network = make_network(FaultInjector(FaultPlan(probe_reply_loss=1.0)))
        result = Prober(network).measure(network.universe.flows[0])
        assert not result.observed
        assert result.rtt is None
        assert result.attempts == 1
        assert result.outcome_or_none is None
        # The documented coercion still reads as a miss for legacy use.
        assert result.outcome == 0 and not result.hit

    def test_packet_in_loss_surfaces_unobserved(self):
        network = make_network(FaultInjector(FaultPlan(packet_in_loss=1.0)))
        result = Prober(network).measure(network.universe.flows[0])
        assert not result.observed

    def test_probe_observation_unknown_id_is_none(self):
        network = make_network()
        assert network.probe_observation(999_999_999) is None

    def test_outcomes_do_not_coerce_unobserved_to_miss(self):
        # Regression for the pre-fault-layer bug: measure_flows/outcomes
        # used ProbeResult.outcome, which silently mapped "no reply" to
        # "miss" (0).  An eaten reply must surface as None instead.
        network = make_network(FaultInjector(FaultPlan(probe_reply_loss=1.0)))
        prober = Prober(network)
        bits = prober.outcomes(
            [network.universe.flows[0], network.universe.flows[1]]
        )
        assert bits == [None, None]
        assert all(bit != 0 for bit in bits)

    def test_unobserved_counter_increments(self):
        backend = Instrumentation()
        with use_instrumentation(backend):
            network = make_network(
                FaultInjector(FaultPlan(probe_reply_loss=1.0))
            )
            prober = Prober(network)
            prober.measure(network.universe.flows[0])
        assert backend.metrics.counter("attacker.probe.unobserved").value == 1


class TestRetries:
    def test_retry_recovers_a_dropped_reply(self):
        # First reply draw eaten (0.1 < 0.5), second passes (0.9 >= 0.5).
        injector = FaultInjector(
            FaultPlan(probe_reply_loss=0.5), rng=_ScriptedRng([0.1, 0.9])
        )
        network = make_network(injector)
        backend = Instrumentation()
        with use_instrumentation(backend):
            prober = Prober(network, retries=1)
        result = prober.measure(network.universe.flows[0])
        assert result.observed
        assert result.attempts == 2
        assert backend.metrics.counter("attacker.probe.retries").value == 1
        assert backend.metrics.counter("attacker.probe.unobserved").value == 0

    def test_exhausted_retries_give_up(self):
        network = make_network(FaultInjector(FaultPlan(probe_reply_loss=1.0)))
        prober = Prober(network, retries=2)
        result = prober.measure(network.universe.flows[0])
        assert not result.observed
        assert result.attempts == 3

    def test_backoff_grows_and_caps_the_wait(self):
        network = make_network(FaultInjector(FaultPlan(probe_reply_loss=1.0)))
        timeout = Prober.TIMEOUT
        assert Prober.BACKOFF == 2.0 and Prober.MAX_TIMEOUT == 8 * timeout
        prober = Prober(network, retries=5)
        before = network.sim.now
        result = prober.measure(network.universe.flows[0])
        assert result.attempts == 6
        # Attempt windows waited out before each retransmit: t, 2t, 4t,
        # 8t, then 8t again (capped below 16t by MAX_TIMEOUT).  The final
        # attempt stops at its last simulated event rather than its
        # deadline, so the total wait sits between the five full windows
        # and the sixth (capped) one.
        waited = network.sim.now - before
        assert waited >= timeout * (1 + 2 + 4 + 8 + 8)
        assert waited < timeout * (1 + 2 + 4 + 8 + 8 + 8)

    def test_zero_retry_clock_matches_historical_path(self):
        # With retries=0 the prober must behave exactly as before the
        # fault layer: the clock stops at the observation, not at the
        # deadline, and a single attempt is recorded.
        network = make_network()
        prober = Prober(network, retries=0)
        before = network.sim.now
        result = prober.measure(network.universe.flows[0])
        assert result.attempts == 1
        assert network.sim.now - before == pytest.approx(result.rtt, abs=1e-9)

    def test_validation(self):
        network = make_network()
        with pytest.raises(ValueError, match="retries"):
            Prober(network, retries=-1)


class TestProbeResultProperties:
    def test_outcome_or_none(self):
        flow = FlowId(src=1, dst=2)
        fast = ProbeResult(flow, 0.0, rtt=1e-4, threshold=1e-3)
        slow = ProbeResult(flow, 0.0, rtt=5e-3, threshold=1e-3)
        lost = ProbeResult(flow, 0.0, rtt=None, threshold=1e-3, attempts=3)
        assert fast.outcome_or_none == 1
        assert slow.outcome_or_none == 0
        assert lost.outcome_or_none is None
        assert lost.attempts == 3
