"""Tests for the :class:`FaultInjector` determinism contract."""

import numpy as np
import pytest

from repro.faults import FAULT_KINDS, FaultInjector, FaultPlan
from repro.obs import Instrumentation, use_instrumentation

from tests.faults.conftest import counting_injector, injected


def drain(injector, n=50):
    """A fixed interleaved query sequence, as the simulator would issue."""
    out = []
    for i in range(n):
        out.append(injector.drop_packet_in())
        out.append(injector.drop_flow_mod())
        out.append(injector.drop_probe_reply())
        out.append(injector.controller_extra_delay(float(i)))
    return out


class TestDeterminism:
    def test_same_seed_same_fault_stream(self):
        plan = FaultPlan(
            packet_in_loss=0.3,
            flow_mod_loss=0.2,
            probe_reply_loss=0.1,
            controller_jitter=0.004,
            outage_rate=0.05,
            outage_duration=2.0,
            seed=11,
        )
        first, first_backend = counting_injector(plan)
        second, second_backend = counting_injector(plan)
        assert drain(first) == drain(second)
        assert injected(first_backend) == injected(second_backend)

    def test_different_seeds_differ(self):
        plan = FaultPlan(packet_in_loss=0.5, seed=1)
        other = FaultPlan(packet_in_loss=0.5, seed=2)
        assert drain(FaultInjector(plan)) != drain(FaultInjector(other))

    def test_zero_rate_kinds_draw_nothing(self):
        # Interleaving zero-rate queries must not advance the RNG: the
        # packet-in decision stream is identical whether or not the
        # (all-zero) flow-mod/probe-reply/delay hooks are consulted.
        plan = FaultPlan(packet_in_loss=0.5, seed=3)
        lone = FaultInjector(plan)
        interleaved = FaultInjector(plan)
        lone_stream = [lone.drop_packet_in() for _ in range(100)]
        mixed_stream = []
        for i in range(100):
            assert not interleaved.drop_flow_mod()
            assert not interleaved.drop_probe_reply()
            assert interleaved.controller_extra_delay(float(i)) == 0.0
            mixed_stream.append(interleaved.drop_packet_in())
        assert lone_stream == mixed_stream

    def test_inactive_plan_never_touches_rng(self):
        injector = FaultInjector(FaultPlan(), rng=np.random.default_rng(9))
        drain(injector)
        # The injected generator is still at its initial state.
        assert injector.rng.random() == np.random.default_rng(9).random()


class TestRates:
    def test_rate_one_always_fires(self):
        plan = FaultPlan(packet_in_loss=1.0, seed=0)
        injector, backend = counting_injector(plan)
        assert all(injector.drop_packet_in() for _ in range(20))
        assert injected(backend)["packet_in_loss"] == 20
        assert sum(injected(backend).values()) == 20

    def test_rate_zero_never_fires(self):
        injector, backend = counting_injector(FaultPlan())
        assert not any(injector.drop_packet_in() for _ in range(20))
        assert sum(injected(backend).values()) == 0

    def test_counts_track_kinds_independently(self):
        plan = FaultPlan(packet_in_loss=1.0, probe_reply_loss=1.0, seed=0)
        injector, backend = counting_injector(plan)
        injector.drop_packet_in()
        injector.drop_probe_reply()
        injector.drop_probe_reply()
        counts = injected(backend)
        assert counts["packet_in_loss"] == 1
        assert counts["probe_reply_loss"] == 2
        assert counts["flow_mod_loss"] == 0


class TestControllerDelay:
    def test_jitter_adds_positive_delay(self):
        injector, backend = counting_injector(
            FaultPlan(controller_jitter=0.005, seed=1)
        )
        delays = [injector.controller_extra_delay(0.0) for _ in range(50)]
        assert all(d > 0.0 for d in delays)
        assert injected(backend)["jitter"] == 50

    def test_outage_stalls_until_window_closes(self):
        plan = FaultPlan(outage_rate=1.0, outage_duration=2.0, seed=1)
        injector, backend = counting_injector(plan)
        # The packet-in starting the outage waits out the full window.
        assert injector.controller_extra_delay(10.0) == pytest.approx(2.0)
        assert injected(backend)["outage"] == 1
        # Mid-outage arrivals wait the remainder; no new outage draw.
        assert injector.controller_extra_delay(11.5) == pytest.approx(0.5)
        assert injected(backend)["outage"] == 1
        # Past the window a fresh outage can start (rate 1 -> it does).
        assert injector.controller_extra_delay(13.0) == pytest.approx(2.0)
        assert injected(backend)["outage"] == 2


class TestObservability:
    def test_injections_export_counters(self):
        backend = Instrumentation()
        with use_instrumentation(backend):
            plan = FaultPlan(packet_in_loss=1.0, flow_mod_loss=1.0, seed=0)
            injector = FaultInjector(plan)
            injector.drop_packet_in()
            injector.drop_flow_mod()
            injector.drop_flow_mod()
        metrics = backend.metrics
        assert metrics.counter("faults.injected.packet_in_loss").value == 1
        assert metrics.counter("faults.injected.flow_mod_loss").value == 2

    def test_kind_catalogue_is_stable(self):
        assert FAULT_KINDS == (
            "packet_in_loss",
            "flow_mod_loss",
            "probe_reply_loss",
            "jitter",
            "outage",
        )
