"""Helpers for reading fault counts, which live only in the registry."""

from repro.faults import FAULT_KINDS, FaultInjector
from repro.obs import Instrumentation, use_instrumentation


def counting_injector(plan, **kwargs):
    """``(injector, backend)``: an injector counting into a private backend.

    The injector resolves its counters at construction, so every later
    injection counts into ``backend`` whatever backend is then current.
    """
    backend = Instrumentation()
    with use_instrumentation(backend):
        injector = FaultInjector(plan, **kwargs)
    return injector, backend


def injected(backend):
    """``{kind: count}`` of the ``faults.injected.*`` counters."""
    return {
        kind: backend.metrics.counter(f"faults.injected.{kind}").value
        for kind in FAULT_KINDS
    }
