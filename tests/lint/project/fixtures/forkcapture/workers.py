"""ForkPool workers: ``fn(shared, item)``, each calling one helper."""

from forkcapture.helpers import ambient, jitter, tally


def noisy(shared, item):
    return jitter(item * shared)


def counted(shared, item):
    return tally(item + shared)


def sanctioned(shared, item):
    return ambient(item - shared)
