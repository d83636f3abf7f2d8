"""The attacker's measurement vantage point.

:class:`Prober` injects probe flows from the attacker host (spoofing the
source address when the probe flow belongs to another host, as in
Section III-A), advances the simulation until the corresponding reply is
observed, and classifies the measured response time against the paper's
1 ms threshold: fast means a covering rule was already cached
(``Q_f = 1``), slow means the flow took the controller round trip
(``Q_f = 0``).

Probes can go unanswered -- the fault layer (docs/FAULTS.md) drops
packet-ins and probe replies -- so a probe that times out surfaces as
``ProbeResult.observed == False`` rather than crashing or silently
counting as a miss.  With ``retries > 0`` the prober retransmits with
capped exponential backoff before giving up.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.flows.flowid import FlowId
from repro.obs import get_instrumentation
from repro.simulator.network import Network
from repro.simulator.timing import DEFAULT_THRESHOLD_SECONDS

_probe_ids = itertools.count(1)


@dataclass(frozen=True)
class ProbeResult:
    """One timed probe."""

    flow: FlowId
    send_time: float
    rtt: Optional[float]
    threshold: float
    #: Number of transmissions (1 = answered first try or no retries).
    attempts: int = 1

    @property
    def observed(self) -> bool:
        """Whether a reply came back before the measurement deadline."""
        return self.rtt is not None

    @property
    def hit(self) -> bool:
        """``Q_f``: True iff the response was faster than the threshold.

        An unobserved probe is conservatively classified as a miss (the
        setup path is the slow one).
        """
        return self.rtt is not None and self.rtt < self.threshold

    @property
    def outcome(self) -> int:
        """The hit bit as an integer (model convention).

        Coerces an unobserved probe to a miss -- only use this when the
        caller has already established ``observed``; otherwise prefer
        :attr:`outcome_or_none`, which keeps the unobserved state.
        """
        return 1 if self.hit else 0

    @property
    def outcome_or_none(self) -> Optional[int]:
        """The hit bit, or ``None`` when the probe went unanswered."""
        return None if self.rtt is None else self.outcome


class Prober:
    """Sequential probe measurement against a live network.

    ``retries`` is the number of extra transmissions after an unanswered
    probe before giving up (default 0: one shot, exactly the
    pre-fault-layer behaviour).  The timing is the paper's setup:
    :attr:`THRESHOLD` classifies a reply, an attempt waits
    :attr:`TIMEOUT` for it, every unanswered attempt multiplies the
    timeout by :attr:`BACKOFF` up to :attr:`MAX_TIMEOUT`, and
    back-to-back probes are :attr:`GAP` apart.
    """

    #: Reply-time cut between a cache hit and a miss (seconds).
    THRESHOLD = DEFAULT_THRESHOLD_SECONDS
    #: Seconds an attempt waits for its reply.
    TIMEOUT = 0.25
    #: Seconds between back-to-back probes.
    GAP = 0.0005
    #: Timeout multiplier after every unanswered attempt.
    BACKOFF = 2.0
    #: Cap on the per-attempt timeout under backoff.
    MAX_TIMEOUT = 8.0 * TIMEOUT

    def __init__(self, network: Network, retries: int = 0) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.network = network
        self.retries = int(retries)
        obs = get_instrumentation().metrics
        self._obs_retries = obs.counter("attacker.probe.retries")
        self._obs_unobserved = obs.counter("attacker.probe.unobserved")

    def _await_reply(self, probe_id: int, deadline: float) -> Optional[float]:
        """Step the simulator until the probe's reply or the deadline."""
        network = self.network
        sim = network.sim
        while network.probe_observation(probe_id) is None:
            next_time = sim.next_event_time
            if next_time is None or next_time > deadline:
                break
            sim.step()
        return network.probe_observation(probe_id)

    def measure(self, flow: FlowId) -> ProbeResult:
        """Send one probe and run the simulation until its reply.

        The simulator is advanced event by event, so the clock ends at
        the observation time (not the deadline) and back-to-back probes
        stay tightly spaced, like a real attacker's.  Unanswered probes
        are retransmitted up to ``retries`` times with the timeout
        growing by :attr:`BACKOFF` per attempt (capped at
        :attr:`MAX_TIMEOUT`);
        only then does the clock advance to the attempt's deadline, so
        the zero-retry path is identical to the historical one.
        """
        sim = self.network.sim
        timeout = self.TIMEOUT
        attempts = 0
        # One probe identity per measurement: a retransmission re-sends
        # the *same* probe (same ICMP id/seq), like a real attacker's
        # retry timer.  Keeping the id stable across attempts is what
        # lets per-burst defenses recognise the retransmission instead
        # of treating every attempt as a brand-new flow arrival.
        probe_id = next(_probe_ids)
        while True:
            attempts += 1
            send_time = sim.now
            self.network.send_probe(flow, probe_id)
            observed = self._await_reply(probe_id, send_time + timeout)
            if observed is not None:
                return ProbeResult(
                    flow=flow,
                    send_time=send_time,
                    rtt=observed - send_time,
                    threshold=self.THRESHOLD,
                    attempts=attempts,
                )
            if attempts > self.retries:
                self._obs_unobserved.inc()
                return ProbeResult(
                    flow=flow,
                    send_time=send_time,
                    rtt=None,
                    threshold=self.THRESHOLD,
                    attempts=attempts,
                )
            # Retransmit: wait out the rest of this attempt's timeout
            # window (a real attacker's timer fires at the deadline),
            # then back off.
            self._obs_retries.inc()
            sim.run_until(send_time + timeout)
            timeout = min(timeout * self.BACKOFF, self.MAX_TIMEOUT)

    def measure_flows(self, flows: Sequence[FlowId]) -> List[ProbeResult]:
        """Measure several probes back to back with a small gap."""
        results: List[ProbeResult] = []
        for index, flow in enumerate(flows):
            if index > 0:
                self.network.sim.run_until(self.network.sim.now + self.GAP)
            results.append(self.measure(flow))
        return results

    def outcomes(self, flows: Sequence[FlowId]) -> List[Optional[int]]:
        """Hit bits for a probe sequence (the ``Q`` vector).

        Unobserved probes yield ``None`` -- they are **not** coerced to
        a miss; downstream deciders marginalise the missing bit (see
        ``Attacker.decide``).
        """
        return [
            result.outcome_or_none for result in self.measure_flows(flows)
        ]
