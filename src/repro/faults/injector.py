"""The :class:`FaultInjector`: the runtime half of the fault layer.

One injector instance is attached to a :class:`~repro.simulator.network.
Network` (``Network(..., faults=injector)``) and consulted at three
narrow injection points:

* ``Switch._send_packet_in``  -> :meth:`FaultInjector.drop_packet_in`
* ``ReactiveController.handle_packet_in``
  -> :meth:`FaultInjector.controller_extra_delay` and
  :meth:`FaultInjector.drop_flow_mod`
* ``Network._host_receive`` (probe echo replies)
  -> :meth:`FaultInjector.drop_probe_reply`

Determinism contract (property-tested in ``tests/faults``):

* the injector owns a **dedicated** ``numpy.random.Generator`` seeded
  from ``FaultPlan.seed`` -- it never draws from the network RNG, so an
  attached injector cannot perturb latency noise or arrival sampling;
* a rate of exactly ``0.0`` for a fault kind draws **nothing** from the
  fault RNG, so partial plans stay reproducible kind-by-kind;
* given the same plan (same seed) and the same sequence of injection
  queries, the injected faults are identical.

Lint rule ``SEED102`` (``repro-sdn check``) enforces the
injected-generator discipline on any ``*Injector`` class: build the
generator in ``__init__``, draw only from it (see
docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import get_instrumentation

from .plan import FaultPlan

#: Fault kinds, each counted as ``faults.injected.<kind>``.
FAULT_KINDS = (
    "packet_in_loss",
    "flow_mod_loss",
    "probe_reply_loss",
    "jitter",
    "outage",
)


class FaultInjector:
    """Draws faults from a dedicated seeded RNG according to a plan."""

    def __init__(
        self,
        plan: FaultPlan,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.plan = plan
        self.rng = rng if rng is not None else np.random.default_rng(plan.seed)
        self._outage_until = float("-inf")
        obs = get_instrumentation().metrics
        self._obs_counters = {
            kind: obs.counter(f"faults.injected.{kind}") for kind in FAULT_KINDS
        }

    # ------------------------------------------------------------------
    # Internal draw helpers (zero-rate kinds never touch the RNG)
    # ------------------------------------------------------------------
    def _bernoulli(self, rate: float, kind: str) -> bool:
        if rate <= 0.0:
            return False
        if self.rng.random() < rate:
            self._obs_counters[kind].inc()
            return True
        return False

    # ------------------------------------------------------------------
    # Injection points
    # ------------------------------------------------------------------
    def drop_packet_in(self) -> bool:
        """Whether a switch's packet-in message is lost on the wire."""
        return self._bernoulli(self.plan.packet_in_loss, "packet_in_loss")

    def drop_flow_mod(self) -> bool:
        """Whether the controller's flow-mod installation is lost."""
        return self._bernoulli(self.plan.flow_mod_loss, "flow_mod_loss")

    def drop_probe_reply(self) -> bool:
        """Whether the attacker misses a probe's echo reply."""
        return self._bernoulli(self.plan.probe_reply_loss, "probe_reply_loss")

    def controller_extra_delay(self, now: float) -> float:
        """Extra controller processing delay (jitter + outage) at ``now``.

        Jitter is an exponential draw with mean ``controller_jitter``;
        an outage stalls handling until the outage window closes (the
        packet-in that *starts* an outage is itself delayed by it).
        """
        extra = 0.0
        if self.plan.controller_jitter > 0.0:
            extra += float(self.rng.exponential(self.plan.controller_jitter))
            self._obs_counters["jitter"].inc()
        if self.plan.outage_rate > 0.0:
            if now >= self._outage_until and self.rng.random() < self.plan.outage_rate:
                self._outage_until = now + self.plan.outage_duration
                self._obs_counters["outage"].inc()
            if now < self._outage_until:
                extra += self._outage_until - now
        return extra
