"""Generator construction in service handlers outside the planned path.

Never imported -- parsed by the lint tests.  Lines carrying a
``expect[RULE]`` marker must produce exactly that finding.
"""

import numpy as np
from numpy.random import default_rng

SEED = 99


class JobService:
    def handle(self, spec):
        rng = default_rng(SEED)  # expect[SEED102]
        return rng

    def plan_session(self, spec, index):
        # Planned-seed path: session-keyed construction is the point.
        return default_rng([SEED, index])

    async def drain(self):
        return np.random.Generator(np.random.PCG64(SEED))  # expect[SEED102]


async def stream_sessions(jobs):
    rng = default_rng(SEED)  # expect[SEED102]
    return [rng.integers(10) for _ in jobs]


async def plan_batch(jobs):
    # A plan_* coroutine is the planned path even outside a class.
    return default_rng(SEED)


def session_helper():
    # Synchronous module-level helper: not a service handler.
    return default_rng(SEED)
