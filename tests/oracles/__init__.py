"""Reference implementations kept as test oracles.

Production runs one implementation of each hot layer.  The simpler
implementations they replaced live here, and the differential suites pin
production to them:

* :class:`ReferenceFlowTable` (:mod:`tests.oracles.flowtable`) -- the
  linear-scan flow table;
* :func:`tests.oracles.network.schedule_arrivals` -- one simulator event
  per background arrival;
* :mod:`tests.oracles.perstate` -- the per-state transition builder
  and probe perturbation (``apply_probe``, ``probe_matrix``), which
  alone takes another recency estimator, simultaneous expiries
  (``multi_expiry``) or expiry on no-arrival steps only
  (``expire_on_arrival=False``);
* :mod:`tests.oracles.recency` -- the scalar per-state effective rates
  (``gamma_cached``, ``gamma_uncached``) and the per-state recency
  estimators: the independence approximation state by state, which
  production's bulk tables equal bit for bit (pinned by
  ``tests/core/test_sparse_dense_diff.py``), and the exact and
  Monte-Carlo estimators it is checked against (pinned by
  ``tests/core/test_recency.py`` and the estimator ablation
  benchmark);
* :mod:`tests.oracles.dense` -- the per-state transition builder with
  dense matrices and ``@`` powering;
* :mod:`tests.oracles.fullstate` -- the compact model over every subset
  of at most ``n`` rules, installable or not;
* :mod:`tests.oracles.loops` -- the serial trial loop and the serial
  screening loop (:func:`~tests.oracles.loops.serial_loops` runs a
  pipeline on both);
* :mod:`tests.oracles.trials` -- one identically seeded world replica
  per probing attacker, each replaying the detection window, in both
  network and table mode and for adaptive trials, where production
  builds the window once and forks it per distinct probe plan (pinned
  by ``tests/experiments/test_network_fork_diff.py`` and
  ``test_table_fork_diff.py``, not substituted by
  :func:`oracle_pipeline`: the window's work counters differ between
  the two by design);
* :mod:`tests.oracles.monitor` -- ground-truth sampling of the
  simulated switch cache, for the simulator and model-agreement tests;
* :mod:`tests.oracles.basic` -- the paper's Section IV-A chain over
  complete ``(rule, remaining-time)`` cache contents, the ground truth
  the compact model is compared with, and the scalar switch lookup
  over one bitmask state (``match_in_cache``, ``state_covers``);
* :mod:`tests.oracles.probes` -- probe-outcome tables from a dict
  frontier walk, the serial selection loops and the dict adaptive
  session step, where production reads the engine's dense per-outcome
  state rows (pinned by ``tests/core/test_selection_engine.py``); the
  walk perturbs through the per-state estimator, not production's probe
  matrices;
* :mod:`tests.oracles.pairlayout` -- the fast screen's pair layout
  built by numpy, the reference the native
  :func:`~repro.core.cnative.entry_pair_layout` is pinned to (by
  ``tests/experiments/test_pair_layout_diff.py``; the screen itself
  runs only where that kernel loads);
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
from repro.memo import BoundedMemo
from repro.simulator import switch
from repro.simulator.network import Network

from tests.oracles import (
    basic, dense, fullstate, loops, monitor, network, pairlayout, perstate,
    probes, recency, trials,
)
from tests.oracles.flowtable import ReferenceFlowTable

__all__ = [
    "ReferenceFlowTable", "basic", "dense", "fullstate", "loops", "monitor",
    "network", "oracle_pipeline", "pairlayout", "perstate", "probes",
    "recency", "trials",
]


@contextmanager
def oracle_pipeline() -> Iterator[None]:
    """Run the enclosed code on the oracle table, delivery and screen."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(switch, "FlowTable", ReferenceFlowTable)
        patch.setattr(trial_runners, "FlowTable", ReferenceFlowTable)
        # Template networks built outside hold production tables: start
        # from an empty memo, and drop the oracle-built ones on exit.
        patch.setattr(
            trial_runners,
            "_TEMPLATES",
            BoundedMemo(trial_runners.MAX_TEMPLATES),
        )
        patch.setattr(Network, "schedule_arrivals", network.schedule_arrivals)
        patch.setenv(cnative.DISABLE_ENV_VAR, "1")
        cnative._reset_for_tests()
        try:
            yield
        finally:
            patch.undo()
            cnative._reset_for_tests()
