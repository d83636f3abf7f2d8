"""Poisson arrival processes and traffic schedules.

In the paper's evaluation, each source host runs a script that picks
packet send times from a Poisson process with the flow's parameter
``lambda_f`` (Section VI-A).  :class:`PoissonArrivalProcess` reproduces
that: it draws exponential inter-arrival gaps and returns absolute send
times inside a horizon.  :func:`sample_schedule` interleaves the
per-flow draws into one time-ordered trace for the simulator and for the
fast table-level trial runner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.flows.universe import FlowUniverse


@dataclass(frozen=True)
class Arrival:
    """One flow arrival: ``flow_index`` arrives at absolute ``time`` (s)."""

    time: float
    flow_index: int


class PoissonArrivalProcess:
    """Homogeneous Poisson process for a single flow.

    ``rate`` is ``lambda_f`` in arrivals per second.  A rate of zero
    yields no arrivals.
    """

    def __init__(self, rate: float, rng: np.random.Generator) -> None:
        if rate < 0:
            raise ValueError(f"negative rate: {rate}")
        self.rate = rate
        self._rng = rng

    def sample(self, horizon: float, start: float = 0.0) -> List[float]:
        """Arrival times in ``[start, start + horizon)``.

        Uses the standard conditional-uniform construction: draw the count
        from Poisson(rate * horizon), then place the points uniformly.
        This is exact and vectorises well.
        """
        if horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.rate <= 0.0 or horizon <= 0.0:
            return []
        count = int(self._rng.poisson(self.rate * horizon))
        times = self._rng.uniform(start, start + horizon, size=count)
        times.sort()
        return [float(t) for t in times]


def sample_schedule(
    universe: FlowUniverse,
    horizon: float,
    rng: np.random.Generator,
    start: float = 0.0,
) -> List[Arrival]:
    """Sample a full multi-flow arrival schedule over ``[start, start+horizon)``.

    Returns time-ordered :class:`Arrival` records covering every flow in
    the universe, each drawn from its own independent Poisson process --
    exactly the traffic the paper's background scripts generate.
    """
    arrivals: List[Arrival] = []
    for index, rate in enumerate(universe.rates):
        process = PoissonArrivalProcess(rate, rng)
        arrivals.extend(
            Arrival(time, index) for time in process.sample(horizon, start)
        )
    arrivals.sort(key=lambda a: a.time)
    return arrivals


class PiecewiseRateProfile:
    """A piecewise-constant time-varying rate multiplier.

    The Markov model assumes homogeneous Poisson arrivals; real traffic
    has diurnal (or bursty) structure.  A profile scales every flow's
    base rate by ``factor(t)``; the reproduction uses it to measure how
    the attack degrades when the attacker's stationary model meets
    non-stationary reality (an extension beyond the paper).

    ``breakpoints`` are segment start times (the first must be 0.0);
    ``factors`` the per-segment multipliers.  Beyond the last
    breakpoint the final factor holds.
    """

    def __init__(self, breakpoints: Sequence[float], factors: Sequence[float]) -> None:
        if len(breakpoints) != len(factors):
            raise ValueError("breakpoints and factors must align")
        # Exact sentinel: a profile's first breakpoint is 0.0 by contract.
        if not breakpoints or breakpoints[0] != 0.0:  # repro: noqa[PY001]
            raise ValueError("profile must start at time 0.0")
        if list(breakpoints) != sorted(breakpoints):
            raise ValueError("breakpoints must be increasing")
        if any(f < 0 for f in factors):
            raise ValueError("factors must be non-negative")
        self.breakpoints = tuple(float(b) for b in breakpoints)
        self.factors = tuple(float(f) for f in factors)

    def mean_factor(self, horizon: float) -> float:
        """Time-average of the multiplier over ``[0, horizon]``.

        An attacker estimating stationary rates from long observation
        would arrive at ``base_rate * mean_factor``.
        """
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        total = 0.0
        for index, (start, factor) in enumerate(
            zip(self.breakpoints, self.factors)
        ):
            if start >= horizon:
                break
            end = (
                self.breakpoints[index + 1]
                if index + 1 < len(self.breakpoints)
                else horizon
            )
            total += factor * (min(end, horizon) - start)
        return total / horizon

    def segments(self, horizon: float) -> List[Tuple[float, float, float]]:
        """(start, end, factor) segments clipped to ``[0, horizon]``."""
        out: List[Tuple[float, float, float]] = []
        for index, (start, factor) in enumerate(
            zip(self.breakpoints, self.factors)
        ):
            if start >= horizon:
                break
            end = (
                self.breakpoints[index + 1]
                if index + 1 < len(self.breakpoints)
                else horizon
            )
            out.append((start, min(end, horizon), factor))
        return out


def sample_schedule_with_profile(
    universe: FlowUniverse,
    profile: PiecewiseRateProfile,
    horizon: float,
    rng: np.random.Generator,
) -> List[Arrival]:
    """Sample a schedule under a time-varying rate profile.

    Each flow's instantaneous rate is ``base_rate * profile.factor(t)``;
    segments are sampled independently (exact for piecewise-constant
    intensities).
    """
    arrivals: List[Arrival] = []
    for start, end, factor in profile.segments(horizon):
        if factor <= 0.0 or end <= start:
            continue
        for index, rate in enumerate(universe.rates):
            process = PoissonArrivalProcess(rate * factor, rng)
            arrivals.extend(
                Arrival(time, index)
                for time in process.sample(end - start, start=start)
            )
    arrivals.sort(key=lambda a: a.time)
    return arrivals


def occurred_in_window(
    schedule: Sequence[Arrival],
    flow_index: int,
    window_start: float,
    window_end: float,
) -> bool:
    """Ground truth for a trial: did ``flow_index`` arrive in the window?

    This is the indicator ``X̂`` of Section V evaluated on an actual
    trace: 1 iff the target flow occurred in ``[window_start, window_end]``.
    """
    return any(
        a.flow_index == flow_index and window_start <= a.time <= window_end
        for a in schedule
    )
