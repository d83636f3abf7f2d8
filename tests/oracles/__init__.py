"""Reference implementations kept as test oracles.

Production runs one implementation of each hot layer.  The simpler
implementations they replaced live here, and the differential suites pin
production to them:

* :class:`ReferenceFlowTable` (:mod:`tests.oracles.flowtable`) -- the
  linear-scan flow table;
* :func:`tests.oracles.network.schedule_arrivals` -- one simulator event
  per background arrival;
* :mod:`tests.oracles.dense` -- the per-state transition builder with
  dense matrices and ``@`` powering;
* :mod:`tests.oracles.fullstate` -- the compact model over every subset
  of at most ``n`` rules, installable or not;
* :mod:`tests.oracles.loops` -- the serial trial loop and the serial
  screening loop (:func:`~tests.oracles.loops.serial_loops` runs a
  pipeline on both);
* the exact-only screen, which is production's own fallback when the
  native kernel is disabled (``REPRO_NO_CKERNEL=1``).

:func:`oracle_pipeline` substitutes the first two and disables the
native kernel, so a whole experiment runs on the oracles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.core import cnative
from repro.experiments import trials
from repro.simulator import switch
from repro.simulator.network import Network

from tests.oracles import dense, fullstate, loops, network
from tests.oracles.flowtable import ReferenceFlowTable

__all__ = [
    "ReferenceFlowTable", "dense", "fullstate", "loops", "network",
    "oracle_pipeline",
]


@contextmanager
def oracle_pipeline() -> Iterator[None]:
    """Run the enclosed code on the oracle table, delivery and screen."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(switch, "FlowTable", ReferenceFlowTable)
        patch.setattr(trials, "FlowTable", ReferenceFlowTable)
        patch.setattr(Network, "schedule_arrivals", network.schedule_arrivals)
        patch.setenv(cnative.DISABLE_ENV_VAR, "1")
        cnative._reset_for_tests()
        try:
            yield
        finally:
            patch.undo()
            cnative._reset_for_tests()
