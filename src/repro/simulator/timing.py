"""Latency model for the timing side channel.

The paper measured, on its Mininet/OVS/Ryu testbed, an end-to-end probe
response time of 0.087 ms (std 0.021 ms) when the covering rule was
already cached, versus 4.070 ms (std 1.806 ms) when the flow had to be
set up through the controller -- trivially separable with a 1 ms
threshold (Section VI-A).

:class:`LatencyModel` supplies every delay component in the simulated
network.  The defaults in :meth:`LatencyModel.calibrated` are tuned so
that, on the default Stanford-backbone attachment (a 4-switch path from
the host pod to the server pod), the simulated hit and miss populations
match the paper's measurements; ``benchmarks/test_bench_timing_table.py``
regenerates the comparison.

All samples are drawn from normal distributions clipped below at a tenth
of the mean, a pragmatic stand-in for the positively skewed latency
noise of a real testbed.

A network draws its latencies through a :class:`NormalBlock`: standard
normals come from its generator :data:`NORMAL_BLOCK` at a time, and a
draw returns ``mean + std * z``.  numpy's ``Generator.normal(loc,
scale)`` computes ``loc + scale * standard_normal()``, and a block of
``standard_normal(k)`` is the next ``k`` scalar draws, so the delays are
bit-identical to scalar ``rng.normal`` calls -- provided nothing else
draws from that generator (``tests/simulator/test_timing.py`` pins both
facts).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from typing import Dict, List, Union

import numpy as np

#: Standard normals a :class:`NormalBlock` draws at a time.  A trial
#: draws about two thousand; a fork shares the block it was taken in.
NORMAL_BLOCK = 512


class NormalBlock:
    """Normal draws from one generator, taken ``NORMAL_BLOCK`` at a time.

    ``normal(loc, scale)`` matches ``Generator.normal`` bit for bit
    while this block is the generator's only consumer.  The block list
    is replaced, never mutated, so a deep copy shares it and copies only
    the cursor and the generator.
    """

    __slots__ = ("rng", "_block", "_cursor")

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._block: List[float] = []
        self._cursor = 0

    def __deepcopy__(self, memo: Dict[int, object]) -> "NormalBlock":
        clone = NormalBlock.__new__(NormalBlock)
        clone.rng = copy.deepcopy(self.rng, memo)
        clone._block = self._block
        clone._cursor = self._cursor
        return clone

    def normal(self, loc: float, scale: float) -> float:
        """The next draw of ``N(loc, scale**2)``."""
        cursor = self._cursor
        if cursor == len(self._block):
            self._block = self.rng.standard_normal(NORMAL_BLOCK).tolist()
            cursor = 0
        self._cursor = cursor + 1
        return loc + scale * self._block[cursor]


#: What a latency draw reads from: a network's block or a bare generator.
NormalSource = Union[NormalBlock, np.random.Generator]


@dataclass(frozen=True)
class LatencyModel:
    """Delay components (seconds): means and standard deviations.

    :meth:`calibrated` holds the values every program runs on.
    """

    #: Per-link propagation + serialisation delay.
    link_mean: float
    link_std: float
    #: Per-switch table lookup + forwarding.
    lookup_mean: float
    lookup_std: float
    #: Destination host turnaround for an echo reply.
    host_reply_mean: float
    host_reply_std: float
    #: One-way switch <-> controller control-channel delay.
    control_link_mean: float
    control_link_std: float
    #: Controller packet-in processing (rule computation).
    controller_proc_mean: float
    controller_proc_std: float
    #: Flow-mod handling + table insertion at the switch.
    flowmod_install_mean: float
    flowmod_install_std: float

    def __deepcopy__(self, memo: Dict[int, object]) -> "LatencyModel":
        return self  # immutable: network forks share it

    def _sample(self, normals: NormalSource, mean: float, std: float) -> float:
        if mean <= 0.0:
            return 0.0
        value = float(normals.normal(mean, std))
        return max(value, mean * 0.1)

    def link_delay(self, normals: NormalSource) -> float:
        """One traversal of a data-plane link."""
        return self._sample(normals, self.link_mean, self.link_std)

    def lookup_delay(self, normals: NormalSource) -> float:
        """One flow-table lookup and forward."""
        return self._sample(normals, self.lookup_mean, self.lookup_std)

    def host_reply_delay(self, normals: NormalSource) -> float:
        """Echo turnaround at the destination host."""
        return self._sample(normals, self.host_reply_mean, self.host_reply_std)

    def control_link_delay(self, normals: NormalSource) -> float:
        """One-way control channel traversal."""
        return self._sample(normals, self.control_link_mean, self.control_link_std)

    def controller_processing_delay(self, normals: NormalSource) -> float:
        """Controller packet-in handling time."""
        return self._sample(
            normals, self.controller_proc_mean, self.controller_proc_std
        )

    def flowmod_install_delay(self, normals: NormalSource) -> float:
        """Switch-side flow-mod processing and insertion."""
        return self._sample(
            normals, self.flowmod_install_mean, self.flowmod_install_std
        )

    @classmethod
    def calibrated(cls) -> "LatencyModel":
        """Delays calibrated to the paper's measured distributions."""
        return cls(
            link_mean=6.5e-6,
            link_std=5.0e-6,
            lookup_mean=3.0e-6,
            lookup_std=2.5e-6,
            host_reply_mean=16.0e-6,
            host_reply_std=10.0e-6,
            control_link_mean=4.0e-4,
            control_link_std=2.0e-4,
            controller_proc_mean=2.9e-3,
            controller_proc_std=1.9e-3,
            flowmod_install_mean=3.0e-4,
            flowmod_install_std=1.5e-4,
        )

    @classmethod
    def noiseless(cls) -> "LatencyModel":
        """All standard deviations zeroed (deterministic delays)."""
        base = cls.calibrated()
        return replace(
            base,
            link_std=0.0,
            lookup_std=0.0,
            host_reply_std=0.0,
            control_link_std=0.0,
            controller_proc_std=0.0,
            flowmod_install_std=0.0,
        )


#: The paper's hit/miss threshold (Section VI-A): 1 ms.
DEFAULT_THRESHOLD_SECONDS = 1.0e-3

#: The paper's measured statistics, kept for paper-vs-measured reports.
PAPER_HIT_MEAN = 0.087e-3
PAPER_HIT_STD = 0.021e-3
PAPER_MISS_MEAN = 4.070e-3
PAPER_MISS_STD = 1.806e-3
