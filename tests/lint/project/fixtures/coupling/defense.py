"""One coupled component (several draw styles) and one clean one."""


class Defense:
    def __init__(self):
        self._network = None

    def attach(self, network):
        self._network = network

    def delay(self):
        # Direct draw through the stored network reference.
        return float(self._network.rng.normal(0.0, 1.0))  # expect[SEED102]

    def jitter(self):
        # A local alias of the same chain must still be seen through.
        rng = self._network.rng
        return rng.uniform()  # expect[SEED102]

    def spread(self):
        # Every Generator draw method counts, not just the common ones.
        return self._network.rng.laplace(0.0, 1.0)  # expect[SEED102]

    def tail(self):
        return self._network.rng.weibull(1.5)  # expect[SEED102]

    def late_child(self):
        # Spawning is setup: outside attach it shifts the network's tree.
        return self._network.rng.spawn(1)[0]  # expect[SEED102]


class OwnedDefense:
    """The sanctioned pattern: owns a generator spawned at attach."""

    def __init__(self):
        self._rng = None

    def attach(self, network):
        self._rng = network.rng.spawn(1)[0]

    def delay(self):
        return float(self._rng.normal(0.0, 1.0))
