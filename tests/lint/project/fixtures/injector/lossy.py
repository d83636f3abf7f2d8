"""Injectors drawing outside the generator they build in ``__init__``.

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.
"""

import random

import numpy as np
from numpy.random import default_rng


class LossyInjector:
    def __init__(self, plan):
        self.plan = plan
        self.rng = np.random.default_rng(plan.seed)

    def legacy_global_draw(self):
        return np.random.random() < self.plan.rate  # expect[RNG001]

    def stdlib_global_draw(self):
        return random.random() < self.plan.rate  # expect[RNG001]

    def stdlib_named_draw(self):
        return random.uniform(0.0, 1.0)  # expect[RNG001]

    def fresh_generator_per_call(self):
        rng = default_rng(self.plan.seed)  # expect[SEED102]
        return rng.random()

    def fresh_attribute_generator(self):
        rng = np.random.default_rng(self.plan.seed)  # expect[SEED102]
        return rng.random()

    def injected_draw_is_fine(self):
        return self.rng.random() < self.plan.rate


class NotAnInjectorHelper:
    """Outside an ``*Injector`` class, SEED102 has no owner to enforce."""

    def stdlib_draw(self):
        # RNG001 bans the stdlib global everywhere; this line only pins
        # that SEED102 leaves non-owners alone.
        return random.random()  # repro: noqa[RNG001]

    def seeded_generator(self, seed):
        return default_rng(seed)
