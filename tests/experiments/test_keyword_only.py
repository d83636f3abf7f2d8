"""The keyword-only public API: positional overflow is a ``TypeError``."""

import warnings

import pytest

from repro.core.selection import best_probe_set, best_single_probe
from repro.experiments.harness import ConfigHarness
from repro.experiments.params import ExperimentParams


@pytest.fixture(scope="module")
def harness():
    return ConfigHarness.sample(
        ExperimentParams(n_trials=5, seed=5, trial_mode="table")
    )


class TestPublicEntryPoints:
    # Each positional overflow below used to be remapped onto the
    # keyword-only parameters with a DeprecationWarning; it now raises.
    def test_best_single_probe_positional_candidates_warns_no_longer(
        self, harness
    ):
        with pytest.raises(TypeError):
            best_single_probe(harness.inference, [0, 1, 2])

    def test_best_probe_set_positional_candidates_warns_no_longer(self, harness):
        # ``None`` used to be remapped onto ``candidates``.
        with pytest.raises(TypeError):
            best_probe_set(harness.inference, 2, None)

    def test_run_trials_positional_n_trials_warns_no_longer(self, harness):
        with pytest.raises(TypeError):
            harness.run_trials(2)

    def test_keyword_calls_do_not_warn(self, harness):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            best_single_probe(harness.inference, candidates=[0, 1])
            best_probe_set(harness.inference, 2, candidates=[0, 1, 2])
