"""Pipeline-level differential: zero plan + zero retries ≡ pre-fault-layer.

The acceptance bar for the fault layer is that the paper pipelines --
fig6, fig7, and the one-call reproduction -- are *bit-identical* with an
all-zero :class:`FaultPlan` and retries disabled to what they produce
with no plan at all.  These tests run each pipeline both ways at the
tiny scale and compare the complete result structures.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.apispec import JobSpec
from repro.experiments.fig6 import run_fig6
from repro.experiments.fig7 import run_fig7
from repro.experiments.persist import RUNNERS
from repro.experiments.reproduce import reproduce_all
from repro.faults import FaultPlan

from tests.experiments.conftest import tiny_experiment_params

def _params(**overrides):
    return tiny_experiment_params(**overrides)


def _with_zero_plan(params):
    return replace(params, fault_plan=FaultPlan.none(), probe_retries=0)


def _spec(params, experiment):
    return JobSpec.from_params(params, experiment=experiment)


def _reproduce_spec(**fields):
    """The spec the legacy ``reproduce_all`` keywords used to build."""
    return JobSpec(experiment="reproduce", trial_mode="table", **fields)


class TestFig6:
    def test_zero_plan_bit_identical(self):
        # Two configurations per Figure 6 bin.
        params = _params(n_configs=4)
        bare = run_fig6(_spec(params, "fig6"))
        planned = run_fig6(_spec(_with_zero_plan(params), "fig6"))
        assert planned.accuracy_series() == bare.accuracy_series()
        assert planned.improvement_cdf() == bare.improvement_cdf()
        assert planned.headline() == bare.headline()


class TestFig7:
    def test_zero_plan_bit_identical(self):
        # Two configurations per Figure 7 bin.
        params = _params(n_configs=6)
        bare = run_fig7(_spec(params, "fig7"))
        planned = run_fig7(_spec(_with_zero_plan(params), "fig7"))
        assert planned.accuracy_series() == bare.accuracy_series()
        assert (
            planned.accuracy_by_covering_count()
            == bare.accuracy_by_covering_count()
        )


class TestReproduce:
    def test_threads_plan_into_experiment_params(self, monkeypatch):
        # reproduce_all at any real scale costs minutes of screening, so
        # pin the *threading* instead: the fault arguments must land in
        # the ExperimentParams handed to both figure pipelines (whose
        # zero-plan bit-identity TestFig6/TestFig7 establish directly).
        seen = {}

        def fake_fig6(params):
            seen["fig6"] = params
            return object()

        def fake_fig7(params):
            seen["fig7"] = params
            return object()

        monkeypatch.setitem(RUNNERS, "fig6", fake_fig6)
        monkeypatch.setitem(RUNNERS, "fig7", fake_fig7)
        plan = FaultPlan(packet_in_loss=0.1, seed=8)
        reproduce_all(
            _reproduce_spec(
                scale=0.01, seed=99, fault_plan=plan, probe_retries=2
            )
        )
        for key in ("fig6", "fig7"):
            assert seen[key].fault_plan == plan
            assert seen[key].probe_retries == 2

    def test_defaults_keep_the_clean_channel(self, monkeypatch):
        seen = {}
        monkeypatch.setitem(
            RUNNERS, "fig6", lambda params: seen.setdefault("params", params)
        )
        monkeypatch.setitem(RUNNERS, "fig7", lambda params: object())
        reproduce_all(_reproduce_spec(scale=0.01, seed=99))
        assert seen["params"].fault_plan is None
        assert seen["params"].probe_retries == 0


class TestHarnessLevel:
    def test_run_trials_zero_plan_identical(self):
        from repro.experiments.harness import sample_screened_harnesses

        params = _params(n_trials=6)
        (harness,) = sample_screened_harnesses(params, 1)
        (harness2,) = sample_screened_harnesses(params, 1)
        bare = harness.run_trials()
        planned = harness2.run_trials(
            fault_plan=FaultPlan.none(), probe_retries=0
        )
        assert planned.accuracies == bare.accuracies

    def test_faults_do_change_outcomes_at_high_rates(self):
        # Sanity inverse: the differential must not hold because the
        # plan is being ignored.  Eating every probe reply forces every
        # probing attacker onto the unobserved path.
        from repro.experiments.harness import sample_screened_harnesses

        params = _params(n_trials=6)
        (harness,) = sample_screened_harnesses(params, 1)
        lossy = harness.run_trials(
            fault_plan=FaultPlan(probe_reply_loss=1.0),
        )
        for trial in lossy.trial_results:
            assert trial.outcomes["naive"] == (None,)

    def test_fault_streams_vary_across_trials(self):
        # Regression: injectors were once seeded from the plan alone,
        # so every trial replayed one identical fault pattern -- with a
        # single probe per trial, a fractional reply-loss rate either
        # fired in every trial or in none.  The per-trial stream must
        # derive from (plan.seed, trial seed): over a batch of trials a
        # 0.5 loss rate yields a *mix* of observed and eaten probes.
        from repro.experiments.harness import sample_screened_harnesses

        params = _params(n_trials=16)
        (harness,) = sample_screened_harnesses(params, 1)
        lossy = harness.run_trials(
            fault_plan=FaultPlan(probe_reply_loss=0.5, seed=9),
        )
        observed = [
            trial.outcomes["naive"][0] is not None
            for trial in lossy.trial_results
        ]
        assert any(observed)
        assert not all(observed)


@pytest.mark.parametrize("mode", ["table", "network"])
def test_dispatch_threading(mode):
    """run_trial threads plan + retries through both fidelity levels."""
    from repro.core.attacker import NaiveAttacker
    from repro.experiments.trials import run_trial
    from repro.flows.config import ConfigGenerator

    from tests.experiments.conftest import tiny_config_params

    config = ConfigGenerator(tiny_config_params(), seed=5).sample()
    trial = run_trial(
        config,
        [NaiveAttacker(config.target_flow)],
        3,
        mode=mode,
        fault_plan=FaultPlan(probe_reply_loss=1.0),
        probe_retries=2,
    )
    assert trial.outcomes["naive"] == (None,)
    assert trial.decisions["naive"] == 0
