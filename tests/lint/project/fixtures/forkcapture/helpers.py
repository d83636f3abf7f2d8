"""Helpers one hop from the workers; two read parent-owned globals."""

from forkcapture.backend import OBS, RNG, get_instrumentation


def jitter(value):
    return value + float(RNG.random())  # expect[PAR101]


def tally(value):
    OBS.record("tally")  # expect[PAR101]
    return value


def ambient(value):
    get_instrumentation().record("ambient")
    return value
