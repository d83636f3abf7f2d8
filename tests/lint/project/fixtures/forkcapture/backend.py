"""A miniature module owning parent-side RNG and backend state."""

import numpy as np


class Instrumentation:
    def record(self, name):
        return name


OBS = Instrumentation()
RNG = np.random.default_rng(7)


def get_instrumentation():
    # Called from ForkPool workers only: the primitive installs a fresh
    # backend there, so the call itself is not a capture.
    return Instrumentation()
