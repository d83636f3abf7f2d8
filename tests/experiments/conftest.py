"""Shared reduced-scale experiment parameters.

Paper-scale harnesses cost ~1 s each to build; the experiment tests use
a shrunken but structurally identical setting (4 flows over 2 mask
bits, 4 rules, cache 2, 5 s window) so whole fig6/fig7 pipelines run in
seconds.
"""

import pytest

from repro.apispec import JobSpec
from repro.experiments.params import ExperimentParams
from repro.flows.config import ConfigParams


def tiny_config_params(**overrides) -> ConfigParams:
    defaults = dict(
        n_flows=4,
        mask_bits=2,
        n_rules=4,
        cache_size=2,
        delta=0.05,
        window_seconds=5.0,
        absence_range=(0.0, 1.0),
    )
    defaults.update(overrides)
    return ConfigParams(**defaults)


def tiny_experiment_params(**overrides) -> ExperimentParams:
    defaults = dict(
        config=tiny_config_params(),
        n_configs=2,
        n_trials=10,
        seed=123,
        trial_mode="table",
    )
    defaults.update(overrides)
    return ExperimentParams(**defaults)


def tiny_job_spec(experiment: str, **overrides) -> JobSpec:
    """:func:`tiny_experiment_params` as the runners' canonical input."""
    return JobSpec.from_params(
        tiny_experiment_params(**overrides), experiment=experiment
    )


@pytest.fixture
def tiny_params() -> ExperimentParams:
    return tiny_experiment_params()
