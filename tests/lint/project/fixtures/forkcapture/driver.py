"""ForkPool dispatches under receiver names that never say "pool"."""

from repro.parallel import ForkPool

from forkcapture.workers import counted, noisy, sanctioned


def run(items):
    return ForkPool(2, 3, name="fixture").map(noisy, items)


def run_counted(items):
    fanout = ForkPool(2, 3, name="fixture")
    return fanout.map(counted, items)


def run_sanctioned(items):
    with ForkPool(2, 3, name="fixture") as runner:
        return runner.map(sanctioned, items)
