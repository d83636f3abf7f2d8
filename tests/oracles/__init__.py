"""Reference implementations kept as test oracles.

Production runs one implementation of each hot layer.  The simpler
implementations they replaced live here, and the differential suites pin
production to them:

* :class:`ReferenceFlowTable` (:mod:`tests.oracles.flowtable`) -- the
  linear-scan flow table;
* :func:`tests.oracles.network.schedule_arrivals` -- one simulator event
  per background arrival;
* :mod:`tests.oracles.perstate` -- the per-state transition builder,
  which alone takes another recency estimator, simultaneous expiries
  (``multi_expiry``) or expiry on no-arrival steps only
  (``expire_on_arrival=False``);
* :mod:`tests.oracles.recency` -- the exact and Monte-Carlo recency
  estimators the independence approximation is checked against (pinned
  by ``tests/core/test_recency.py`` and the estimator ablation
  benchmark);
* :mod:`tests.oracles.dense` -- the per-state transition builder with
  dense matrices and ``@`` powering;
* :mod:`tests.oracles.fullstate` -- the compact model over every subset
  of at most ``n`` rules, installable or not;
* :mod:`tests.oracles.loops` -- the serial trial loop and the serial
  screening loop (:func:`~tests.oracles.loops.serial_loops` runs a
  pipeline on both);
* :mod:`tests.oracles.trials` -- one identically seeded network replica
  per probing attacker, each replaying the detection window, where
  production simulates the window once and forks it per distinct probe
  plan (pinned by ``tests/experiments/test_network_fork_diff.py``, not
  substituted by :func:`oracle_pipeline`: the window's work counters
  differ between the two by design);
* :mod:`tests.oracles.monitor` -- ground-truth sampling of the
  simulated switch cache, for the simulator and model-agreement tests;
* :mod:`tests.oracles.basic` -- the paper's Section IV-A chain over
  complete ``(rule, remaining-time)`` cache contents, the ground truth
  the compact model is compared with;
* :mod:`tests.oracles.probes` -- probe-outcome tables from a dict
  frontier walk, the serial selection loops and the dict adaptive
  session step, where production reads the engine's dense per-outcome
  state rows (pinned by ``tests/core/test_selection_engine.py``);
* the exact-only screen and the scipy chain loop
  (:func:`repro.core.chain.scipy_chain`), which are production's own
  fallbacks when the native kernels are disabled (``REPRO_NO_CKERNEL=1``).

:func:`oracle_pipeline` substitutes the first two and disables the
native kernels, so a whole experiment runs on the oracles.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import pytest

from repro.core import cnative
from repro.experiments import trials as trial_runners
from repro.simulator import switch
from repro.simulator.network import Network

from tests.oracles import (
    basic, dense, fullstate, loops, monitor, network, perstate, probes,
    recency, trials,
)
from tests.oracles.flowtable import ReferenceFlowTable

__all__ = [
    "ReferenceFlowTable", "basic", "dense", "fullstate", "loops", "monitor",
    "network", "oracle_pipeline", "perstate", "probes", "recency", "trials",
]


@contextmanager
def oracle_pipeline() -> Iterator[None]:
    """Run the enclosed code on the oracle table, delivery and screen."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(switch, "FlowTable", ReferenceFlowTable)
        patch.setattr(trial_runners, "FlowTable", ReferenceFlowTable)
        patch.setattr(Network, "schedule_arrivals", network.schedule_arrivals)
        patch.setenv(cnative.DISABLE_ENV_VAR, "1")
        cnative._reset_for_tests()
        try:
            yield
        finally:
            patch.undo()
            cnative._reset_for_tests()
