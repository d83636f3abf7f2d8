"""Defenses drawing outside the stream they spawn at ``attach``.

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.
"""

import random

import numpy as np
from numpy.random import default_rng


class LeakyDefense:
    def __init__(self):
        self._rng = None
        self._network = None

    def attach(self, network):
        self._network = network
        self._rng = network.rng.spawn(1)[0]  # sanctioned: own child stream

    def legacy_global_draw(self, switch, packet):
        return np.random.normal(0.003, 0.001)  # expect[RNG001]

    def stdlib_global_draw(self, switch, packet):
        return random.uniform(0.0, 0.004)  # expect[RNG001]

    def fresh_generator_per_packet(self, switch, packet):
        rng = default_rng(7)  # expect[SEED102]
        return rng.normal(0.003, 0.001)

    def simulator_stream_draw(self, switch, packet):
        return self._network.rng.normal(0.003, 0.001)  # expect[SEED102]

    def parameter_stream_draw(self, network):
        return network.rng.exponential(0.001)  # expect[SEED102]

    def late_spawn(self, network):
        return network.rng.spawn(1)[0]  # expect[SEED102]

    def owned_draw_is_fine(self, switch, packet):
        return self._rng.normal(0.003, 0.001)

    def owned_rng_attribute_is_fine(self, switch, packet):
        return self.rng.normal(0.003, 0.001)


class NotADefenseHelper:
    """Outside a ``*Defense`` class, a non-``self`` ``.rng`` draw is fine."""

    def simulator_stream_draw(self, network):
        return network.rng.normal(0.003, 0.001)
