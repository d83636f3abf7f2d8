"""Golden values for one small defend grid cell.

Generated once by running the tiny defend grid

    JobSpec(experiment="defend", config=tiny_config_params(),
            n_configs=2, n_trials=6, seed=123, trial_mode="network",
            defense=("delay",), detector="logistic")

and pinning the numbers that came out as literals.  The same spec
produced the committed ``fixtures/result_v3_defend.json`` envelope, so
the live grid, these literals, and the on-disk fixture must all agree.
Any drift means the defend pipeline's bit-for-bit determinism contract
broke: the shared config stream, the cell-index-free aux seeds, the
detector's seeded fit, or the delay defense's padding budget changed
behaviour.
"""

import json
from pathlib import Path

import pytest

from repro.apispec import JobSpec
from repro.experiments.defend import run_defend

from tests.experiments.conftest import tiny_config_params

ATOL = 1e-12

FIXTURE = Path(__file__).parent / "fixtures" / "result_v3_defend.json"

# Undefended attacker against the tiny grid's replica worlds.
BASELINE_MODEL_ACCURACY = 0.5833333333333333
BASELINE_RTT_AUC = 1.0
BASELINE_DETECTOR_AUC = 0.9583333333333334
STRUCTURAL_LEAKAGE_BITS = 0.00792735011148793

# The same attacker with DelayDefense attached (clean channel cell).
DELAY_MODEL_ACCURACY = 0.5
DELAY_BEST_ACCURACY = 0.625
DELAY_RTT_AUC = 0.453125
DELAY_EFFECTIVE_LEAKAGE_BITS = 0.000361217611992837
DELAY_BENIGN_DELAY_SECONDS = 0.009863737556855628
DELAY_BENIGN_PACKETS_DELAYED = 2
# A work counter: a trial's shared detection window is counted once,
# then each probing fork adds its own probe phase.
DELAY_PACKETS_DELAYED_COUNTER = 43

SUMMARY = {
    "baseline_detector_auc": 0.9583333333333334,
    "baseline_model_accuracy": 0.5833333333333333,
    "baseline_rtt_auc": 1.0,
    "benign_delay_seconds[delay]": 0.009863737556855628,
    "detector_auc[delay]": 0.9583333333333334,
    "effective_leakage_bits[delay]": 0.000361217611992837,
    "model_accuracy[delay]": 0.5,
    "n_configs": 2.0,
    "n_defenses": 1.0,
    "n_rates": 1.0,
    "probe_retries": 0.0,
    "rtt_auc[delay]": 0.453125,
    "structural_leakage_bits": 0.00792735011148793,
}


@pytest.fixture(scope="module")
def grid():
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
    return run_defend(spec)


class TestGoldenDefendCell:
    def test_baseline_cell(self, grid):
        base = grid.baseline[0].to_dict()
        assert base["accuracies"]["model"] == pytest.approx(
            BASELINE_MODEL_ACCURACY, abs=ATOL
        )
        assert base["rtt_auc"] == pytest.approx(BASELINE_RTT_AUC, abs=ATOL)
        assert base["detector_auc"] == pytest.approx(
            BASELINE_DETECTOR_AUC, abs=ATOL
        )
        assert base["effective_leakage_bits"] == pytest.approx(
            STRUCTURAL_LEAKAGE_BITS, abs=ATOL
        )
        assert base["counters"]["defense.packets_delayed"] == 0

    def test_delay_cell(self, grid):
        cell = grid.cell("delay", 0.0).to_dict()
        assert cell["accuracies"]["model"] == pytest.approx(
            DELAY_MODEL_ACCURACY, abs=ATOL
        )
        assert cell["best_accuracy"] == pytest.approx(
            DELAY_BEST_ACCURACY, abs=ATOL
        )
        assert cell["rtt_auc"] == pytest.approx(DELAY_RTT_AUC, abs=ATOL)
        assert cell["effective_leakage_bits"] == pytest.approx(
            DELAY_EFFECTIVE_LEAKAGE_BITS, abs=ATOL
        )
        assert cell["benign_delay_seconds"] == pytest.approx(
            DELAY_BENIGN_DELAY_SECONDS, abs=ATOL
        )
        assert cell["benign_packets_delayed"] == DELAY_BENIGN_PACKETS_DELAYED
        assert (
            cell["counters"]["defense.packets_delayed"]
            == DELAY_PACKETS_DELAYED_COUNTER
        )

    def test_summary(self, grid):
        summary = grid.summary()
        assert set(summary) == set(SUMMARY)
        for key, expected in SUMMARY.items():
            assert summary[key] == pytest.approx(expected, abs=ATOL), key

    def test_detector_meets_acceptance_floor(self, grid):
        # The issue's acceptance criterion: the online detector reaches
        # AUC >= 0.9 against the undefended attacker on this scenario.
        assert grid.baseline[0].detector_auc >= 0.9

    def test_committed_fixture_agrees_with_live_run(self, grid):
        metrics = json.loads(FIXTURE.read_text())["metrics"]
        summary = grid.summary()
        assert set(metrics) == set(summary)
        for key, expected in summary.items():
            assert metrics[key] == pytest.approx(expected, abs=ATOL), key
