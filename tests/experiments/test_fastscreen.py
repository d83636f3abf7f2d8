"""Tests for the margin-certified float32 screening pre-pass.

Two properties matter:

* **soundness** -- ``certified_reject=True`` must imply the exact
  serial loop rejects the candidate.  This is checked candidate by
  candidate against the exact :class:`ConfigHarness` verdicts over a
  fresh sampled stream.
* **calibrated margins** -- the float32 quantities must sit well inside
  the error-bound constants the certifier assumes.  The bounds are
  re-measured here so a drift in the kernel or the screen math fails
  loudly instead of silently eroding the safety factor.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import cnative
from repro.core.compact_model import CompactModel
from repro.experiments import fastscreen
from repro.experiments.harness import ConfigHarness
from repro.flows.config import ConfigGenerator
from repro.obs import Instrumentation, use_instrumentation

from tests.experiments.conftest import tiny_experiment_params

pytestmark = pytest.mark.skipif(
    not cnative.available(),
    reason=f"native kernel unavailable: {cnative.load_error()}",
)


def sample_candidates(params, count, seed=20170):
    generator = ConfigGenerator(params.config, seed=seed)
    return [generator.sample() for _ in range(count)]


class TestSupports:
    def test_headline_configuration_is_supported(self):
        assert fastscreen.supports(tiny_experiment_params())

    def test_multi_probe_selection_screens_exactly(self):
        params = tiny_experiment_params(n_probes=2)
        assert not fastscreen.supports(params)

    def test_missing_native_kernel_screens_exactly(self, monkeypatch):
        monkeypatch.setenv(cnative.DISABLE_ENV_VAR, "1")
        cnative._reset_for_tests()
        try:
            assert not fastscreen.supports(tiny_experiment_params())
        finally:
            monkeypatch.delenv(cnative.DISABLE_ENV_VAR)
            cnative._reset_for_tests()


class TestSoundness:
    @pytest.mark.parametrize("require_optimal_differs", [False, True])
    def test_certified_rejects_agree_with_the_exact_screen(
        self, require_optimal_differs
    ):
        params = tiny_experiment_params()
        certified = 0
        for config in sample_candidates(params, 60):
            outcome = fastscreen.screen_candidate(
                params,
                config,
                require_optimal_differs=require_optimal_differs,
            )
            assert outcome.model is not None
            harness = ConfigHarness(
                config,
                params,
                rng=np.random.default_rng(0),
                model=outcome.model,
            )
            exact_reject = not harness.is_screened_in() or (
                require_optimal_differs
                and not harness.optimal_differs_from_target()
            )
            if outcome.certified_reject:
                certified += 1
                assert exact_reject, (
                    "unsound certificate: the exact screen accepts "
                    f"target={config.target_flow}"
                )
        # The pre-pass must actually decide a useful share of the
        # stream, otherwise the fast path silently degrades to exact.
        assert certified >= 30

    def test_screen_off_certifies_nothing_without_the_restriction(self):
        params = replace(tiny_experiment_params(), screen=False)
        for config in sample_candidates(params, 5):
            outcome = fastscreen.screen_candidate(
                params, config, require_optimal_differs=False
            )
            assert not outcome.certified_reject

    def test_counters_classify_every_candidate(self):
        params = tiny_experiment_params()
        backend = Instrumentation()
        with use_instrumentation(backend):
            for config in sample_candidates(params, 20):
                fastscreen.screen_candidate(
                    params, config, require_optimal_differs=True
                )
        decided = sum(
            backend.metrics.counter(f"experiment.fastscreen_{key}").value
            for key in ("rejects", "fallbacks", "unsupported")
        )
        assert decided == 20


class TestCalibratedMargins:
    def test_float32_errors_sit_inside_the_certifier_bounds(self):
        params = tiny_experiment_params()
        worst_gain = 0.0
        worst_sum = 0.0
        for config in sample_candidates(params, 40):
            model = CompactModel(
                config.policy,
                config.universe,
                config.delta,
                config.cache_size,
            )
            fast = fastscreen.fast_quantities(
                model, config.target_flow, config.window_steps
            )
            assert fast is not None
            harness = ConfigHarness(
                config,
                params,
                rng=np.random.default_rng(0),
                model=model,
            )
            inference = harness.inference
            exact_gains = np.array(
                [
                    inference.information_gain((flow,))
                    for flow in range(len(config.universe))
                ]
            )
            worst_gain = max(
                worst_gain, float(np.abs(fast.gains - exact_gains).max())
            )
            for flow in range(len(config.universe)):
                table = inference.outcome_table((flow,))
                worst_sum = max(
                    worst_sum,
                    abs(fast.p_hit[flow] - table.outcome_probs.get((1,), 0.0)),
                    abs(
                        fast.p_miss[flow]
                        - table.outcome_probs.get((0,), 0.0)
                    ),
                )
        # The certifier constants carry a ~20x safety factor over the
        # deviations this measurement produced at calibration time.
        assert worst_gain < fastscreen.GAIN_TOL / 4
        assert worst_sum < fastscreen.SUM_TOL / 4
