"""Differential suite: production == the oracles, bit for bit.

Every headline pipeline runs twice -- once in production (indexed
tables, batched arrival streams, certified float32 pre-screen) and once
under :func:`tests.oracles.oracle_pipeline` (linear-scan tables,
per-event delivery, exact-only screening with ``REPRO_NO_CKERNEL=1``)
-- and the persisted result documents must be identical, provenance
included.  This is the contract that lets production ship one path:
not statistically close, *equal*.

The grid deliberately crosses production with every behaviour that
rides on RNG draw order: fault plans and probe retries (robustness),
network-mode trials with an attached defense and detector (defend),
the fig6 case-split screens, and the fork-pool screening fan-out
(``--trial-jobs``).
"""

import pytest

from repro.apispec import JobSpec
from repro.core import cnative
from repro.experiments import fastscreen, trials
from repro.experiments.defend import run_defend
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.persist import (
    defend_to_document,
    fig6_to_document,
    fig7_to_document,
    robustness_to_document,
)
from repro.experiments.robustness import run_robustness
from repro.simulator import switch
from repro.simulator.network import Network

from tests import oracles
from tests.experiments.conftest import (
    tiny_config_params,
    tiny_experiment_params,
)

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

BINS = ((0.5, 0.75), (0.75, 0.95))


def run_both(run):
    """One pipeline on the oracles, then in production."""
    with oracles.oracle_pipeline():
        oracle = run()
    return oracle, run()


class TestOracleSubstitution:
    def test_pipeline_runs_on_the_oracles(self):
        with oracles.oracle_pipeline():
            assert switch.FlowTable is oracles.ReferenceFlowTable
            assert trials.FlowTable is oracles.ReferenceFlowTable
            assert (
                Network.schedule_arrivals
                is oracles.network.schedule_arrivals
            )
            assert not fastscreen.supports(tiny_experiment_params())
        assert switch.FlowTable is not oracles.ReferenceFlowTable
        assert Network.schedule_arrivals is not (
            oracles.network.schedule_arrivals
        )
        assert fastscreen.supports(tiny_experiment_params()) == (
            cnative.available()
        )


class TestFig6:
    def test_documents_identical(self):
        params = tiny_experiment_params(n_trials=10, seed=61)

        def run():
            result = run_fig6(params, bins=BINS, configs_per_bin=2)
            return fig6_to_document(result, params=params)

        oracle, production = run_both(run)
        assert oracle == production


class TestFig7:
    def test_documents_identical(self):
        params = tiny_experiment_params(n_trials=10, seed=71)

        def run():
            result = run_fig7(params, bins=BINS, configs_per_bin=2)
            return fig7_to_document(result, params=params)

        oracle, production = run_both(run)
        assert oracle == production


class TestRobustness:
    def test_documents_identical_with_faults_and_retries(self):
        # Network-mode trials put the stream scheduler, the indexed
        # table, fault injection, and the retry budget all on the line.
        params = tiny_experiment_params(
            n_trials=6, seed=81, probe_retries=1, trial_mode="network"
        )

        def run():
            result = run_robustness(params, rates=(0.0, 1.0))
            return robustness_to_document(result, params=params)

        oracle, production = run_both(run)
        assert oracle == production


class TestDefend:
    def test_documents_identical_with_defense_attached(self):
        spec = JobSpec(
            experiment="defend",
            config=tiny_config_params(),
            n_configs=2,
            n_trials=6,
            seed=123,
            trial_mode="network",
            defense=("delay",),
            detector="logistic",
        )

        def run():
            result = run_defend(spec)
            return defend_to_document(result, spec=spec)

        oracle, production = run_both(run)
        assert oracle == production


class TestTrialJobs:
    def test_fork_pool_screening_matches_serial_oracle(self):
        # Production x trial_jobs=2 against the oracles x serial: the
        # fan-out must neither reorder the candidate stream nor change
        # what the certified pre-screen decides.
        def run(trial_jobs):
            params = tiny_experiment_params(
                n_trials=10, seed=61, trial_jobs=trial_jobs
            )
            result = run_fig6(params, bins=BINS, configs_per_bin=2)
            document = fig6_to_document(result, params=params)
            return {
                key: document[key]
                for key in ("metrics", "series", "configurations")
            }

        with oracles.oracle_pipeline():
            oracle = run(1)
        assert oracle == run(2)
