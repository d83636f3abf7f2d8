"""Tests for the margin-certified float32 screening pre-pass.

Two properties matter:

* **soundness** -- ``certified_reject=True`` must imply the exact
  serial loop rejects the candidate.  This is checked candidate by
  candidate against the exact :class:`ConfigHarness` verdicts over a
  fresh sampled stream, and adversarially on candidates whose exact
  posterior sits just above the paper's 0.5 cut.
* **derived bounds** -- the float32 quantities must sit inside the
  error bounds :func:`fastscreen.error_bounds` derives per candidate.
  The errors are measured here against the exact float64 screen.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.core import cnative
from repro.core.chain import point_distribution
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.core.masks import mask_from_indices
from repro.experiments import fastscreen
from repro.experiments.harness import ConfigHarness, sample_screened_harnesses
from repro.experiments.params import VIABLE_FIG6_BINS, ExperimentParams
from repro.experiments.screening import paper_screen
from repro.flows.config import ConfigGenerator
from repro.flows.universe import FlowUniverse
from repro.obs import Instrumentation, use_instrumentation

from tests.conftest import make_policy, make_universe
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
                config, require_optimal_differs=require_optimal_differs
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

    def test_counters_classify_every_candidate(self):
        params = tiny_experiment_params()
        backend = Instrumentation()
        with use_instrumentation(backend):
            for config in sample_candidates(params, 20):
                fastscreen.screen_candidate(
                    config, require_optimal_differs=True
                )
        counts = _fastscreen_counts(backend)
        assert counts["rejects"] + counts["fallbacks"] == 20
        # Every fallback has one reason; every reject at least one proof.
        assert counts["fallbacks"] == sum(
            counts[f"fallback_{reason}"] for reason in fastscreen.FALLBACKS
        )
        for proof in fastscreen.PROOFS:
            assert counts[f"proof_{proof}"] <= counts["rejects"]

    def test_each_candidate_records_its_model_build(self):
        params = tiny_experiment_params()
        backend = Instrumentation()
        with use_instrumentation(backend):
            for config in sample_candidates(params, 3):
                fastscreen.screen_candidate(
                    config, require_optimal_differs=True
                )
        spans = {span.span_id: span for span in backend.tracer.records}
        screens = [s for s in spans.values() if s.name == "harness.fast_screen"]
        builds = [s for s in spans.values() if s.name == "model.build_entries"]
        assert len(screens) == len(builds) == 3
        for build in builds:
            assert spans[build.parent_id].name == "harness.fast_screen"
            assert build.attrs["kernel"] == "native"
            assert build.attrs["states"] > 0
            assert build.attrs["entries"] > 0

    def test_each_screen_span_records_its_verdict(self):
        # A traced tiny screen over two absence ranges, so both proofs
        # and fallbacks occur: the spans with a fallback verdict number
        # the fallbacks, the rest the certified rejects.
        backend = Instrumentation()
        with use_instrumentation(backend):
            for absence in ((0.0, 1.0), (0.35, 0.65)):
                params = tiny_experiment_params().with_absence_range(*absence)
                for config in sample_candidates(params, 20):
                    fastscreen.screen_candidate(
                        config, require_optimal_differs=True
                    )
        verdicts = [
            span.attrs["verdict"]
            for span in backend.tracer.records
            if span.name == "harness.fast_screen"
        ]
        assert len(verdicts) == 40
        fallbacks = [v for v in verdicts if v in fastscreen.FALLBACKS]
        rejects = [v for v in verdicts if v not in fastscreen.FALLBACKS]
        counts = _fastscreen_counts(backend)
        assert len(fallbacks) == counts["fallbacks"] > 0
        assert len(rejects) == counts["rejects"] > 0
        for reason in fastscreen.FALLBACKS:
            assert fallbacks.count(reason) == counts[f"fallback_{reason}"]
        # A reject's verdict is its sorted proof set, each proof once.
        for verdict in rejects:
            proofs = verdict.split("+")
            assert proofs == sorted(set(proofs))
            assert set(proofs) <= set(fastscreen.PROOFS)
        for proof in fastscreen.PROOFS:
            assert sum(
                proof in verdict.split("+") for verdict in rejects
            ) == counts[f"proof_{proof}"]


def _fastscreen_counts(backend):
    names = ["rejects", "fallbacks"]
    names += [f"proof_{proof}" for proof in fastscreen.PROOFS]
    names += [f"fallback_{reason}" for reason in fastscreen.FALLBACKS]
    return {
        name: backend.metrics.counter(f"experiment.fastscreen_{name}").value
        for name in names
    }


def _screen_counts(backend):
    names = [
        "configs_sampled",
        "configs_screened_out",
        "fastscreen_rejects",
        "exact_screen_reject_viability",
        "exact_screen_reject_target",
    ]
    return {
        name: backend.metrics.counter(f"experiment.{name}").value
        for name in names
    }


class TestOutcomeSplit:
    def test_split_on_the_pinned_screen_streams(self):
        # The first 8 candidates of each pinned stream of the benchmark's
        # screen workload (seed 2017, one stream per Figure 6 bin).
        backend = Instrumentation()
        with use_instrumentation(backend):
            for index, (low, high) in enumerate(VIABLE_FIG6_BINS):
                params = ExperimentParams(seed=2017).with_absence_range(low, high)
                generator = ConfigGenerator(params.config, seed=2017 * 10 + index)
                for _ in range(8):
                    fastscreen.screen_candidate(
                        generator.sample(), require_optimal_differs=True
                    )
        assert _fastscreen_counts(backend) == {
            "rejects": 14,
            "fallbacks": 2,
            "proof_target": 14,
            "proof_unreachable": 5,
            "proof_margin": 14,
            "fallback_thin_margin": 2,
            "fallback_tiny_probability": 0,
            "fallback_no_replica": 0,
        }

    @pytest.mark.parametrize("trial_jobs", [1, 2])
    def test_exact_rejects_complete_the_split(self, trial_jobs):
        # The same 8 candidates per pinned stream, through the acceptance
        # loop: every rejected candidate is counted once, by the fast
        # screen or by the exact screen's reason, at any trial_jobs.
        backend = Instrumentation()
        with use_instrumentation(backend):
            for index, (low, high) in enumerate(VIABLE_FIG6_BINS):
                params = ExperimentParams(
                    seed=2017, trial_jobs=trial_jobs
                ).with_absence_range(low, high)
                generator = ConfigGenerator(params.config, seed=2017 * 10 + index)
                with pytest.raises(RuntimeError, match="configurations accepted"):
                    sample_screened_harnesses(
                        params,
                        8,
                        require_optimal_differs=True,
                        max_attempts_factor=1,
                        generator=generator,
                    )
        counts = _screen_counts(backend)
        assert counts == {
            "configs_sampled": 16,
            "configs_screened_out": 15,
            "fastscreen_rejects": 14,
            "exact_screen_reject_viability": 1,
            "exact_screen_reject_target": 0,
        }
        assert counts["configs_screened_out"] == (
            counts["fastscreen_rejects"]
            + counts["exact_screen_reject_viability"]
            + counts["exact_screen_reject_target"]
        )

    @pytest.mark.parametrize("trial_jobs", [1, 2])
    def test_exact_screen_rejects_the_target(self, trial_jobs):
        # A tiny stream whose fast screen proves most rejects by the
        # target proof, and hands over one candidate that passes the
        # viability screen exactly but whose optimal probe is the target.
        params = tiny_experiment_params(
            trial_jobs=trial_jobs
        ).with_absence_range(0.35, 0.65)
        backend = Instrumentation()
        with use_instrumentation(backend):
            with pytest.raises(RuntimeError, match="configurations accepted"):
                sample_screened_harnesses(
                    params,
                    20,
                    require_optimal_differs=True,
                    max_attempts_factor=1,
                    generator=ConfigGenerator(params.config, seed=20170),
                )
        assert _screen_counts(backend) == {
            "configs_sampled": 20,
            "configs_screened_out": 19,
            "fastscreen_rejects": 18,
            "exact_screen_reject_viability": 0,
            "exact_screen_reject_target": 1,
        }
        assert _fastscreen_counts(backend)["proof_target"] == 18


def _assert_inside_bounds(params, config):
    """Measured replica errors against the exact screen, within the bounds."""
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
    bounds = fast.bounds
    harness = ConfigHarness(
        config,
        params,
        rng=np.random.default_rng(0),
        model=model,
    )
    inference = harness.inference
    layout, _, _ = fastscreen.pair_layout(model, config.target_flow)
    chains = cnative.pair_chain_f32(
        layout, model.initial_distribution(), config.window_steps
    )
    exact = (inference.dist_full, inference.dist_absent)
    for got, want in zip(chains, exact):
        assert np.abs(got - want).sum() <= bounds.chain
    assert abs(
        min(float(chains[1].astype(np.float64).sum()), 1.0)
        - inference.prior_absent()
    ) <= bounds.sums
    exact_gains = np.array(
        [
            inference.information_gain((flow,))
            for flow in range(len(config.universe))
        ]
    )
    assert np.abs(fast.gains - exact_gains).max() <= bounds.gains
    for flow in range(len(config.universe)):
        table = inference.outcome_table((flow,))
        assert abs(
            fast.p_hit[flow] - table.outcome_probs.get((1,), 0.0)
        ) <= bounds.sums
        assert abs(
            fast.p_miss[flow] - table.outcome_probs.get((0,), 0.0)
        ) <= bounds.sums


class TestDerivedBounds:
    def test_float32_errors_sit_inside_the_certifier_bounds(self):
        params = tiny_experiment_params()
        for config in sample_candidates(params, 40):
            _assert_inside_bounds(params, config)

    def test_float32_errors_inside_the_bounds_at_the_headline_scale(self):
        # Two pinned screen candidates: 1,500-step chains, up to 2,510
        # states.
        params = ExperimentParams(seed=2017).with_absence_range(
            *VIABLE_FIG6_BINS[0]
        )
        generator = ConfigGenerator(params.config, seed=2017 * 10)
        for _ in range(2):
            _assert_inside_bounds(params, generator.sample())

    def test_chain_bound_at_the_headline_scale(self):
        # T = 1500 steps, in-degree 146: T (2 u32 + k u64) (1 + u32)^T.
        bounds = fastscreen.error_bounds(1500, 2510, 146, 8, 1.0)
        assert bounds.chain == pytest.approx(1.79e-4, rel=0.01)
        assert bounds.sums == pytest.approx(bounds.chain, rel=1e-6)
        assert bounds.tie_width < 0.06

    def test_bounds_grow_with_steps_degree_and_row_sum(self):
        base = fastscreen.error_bounds(100, 50, 10, 2, 1.0)
        for bigger in (
            fastscreen.error_bounds(200, 50, 10, 2, 1.0),
            fastscreen.error_bounds(100, 50, 10**6, 2, 1.0),
            fastscreen.error_bounds(100, 50, 10, 2, 1.0 + 1e-3),
        ):
            assert bigger.chain > base.chain
            assert bigger.gains > base.gains

    def test_no_gain_bound_outside_the_modulus_domain(self):
        assert math.isinf(fastscreen.error_bounds(100, 50, 10, 2, 1.01).gains)

    def test_entropy_modulus_bounds_eta_on_zero_to_two(self):
        rng = np.random.default_rng(1)

        def eta(z):
            return -z * math.log2(z) if z > 0.0 else 0.0

        for h in (1e-9, 1e-6, 1e-4, 1e-2, 0.125):
            bound = fastscreen.entropy_modulus(h)
            # Near 0, across 1, and random pairs in [0, 2].
            starts = np.concatenate(
                [[0.0, 1.0 - h / 2, 1.0 - h, 2.0 - h], rng.random(200) * (2.0 - h)]
            )
            for s in starts:
                for t in (s + h, s + h * rng.random()):
                    assert abs(eta(s) - eta(t)) <= bound * (1 + 1e-12)
        assert fastscreen.entropy_modulus(0.0) == 0.0
        assert math.isinf(fastscreen.entropy_modulus(0.2))


def _exact_posteriors(config, flow):
    """The exact screen's posteriors on ``flow``'s miss and hit."""
    model = CompactModel(
        config.policy, config.universe, config.delta, config.cache_size
    )
    inference = ReconInference(model, config.target_flow, config.window_steps)
    table = inference.outcome_table((flow,))
    return table.posterior_absent((0,)), table.posterior_present((1,))


def _with_target_rate(config, rate):
    rates = list(config.universe.rates)
    rates[config.target_flow] = rate
    universe = FlowUniverse(config.universe.flows, tuple(rates))
    return replace(config, universe=universe)


def _near_cut(config, flow):
    """``config`` with the target's rate set so that ``flow``'s exact
    screen accepts with one posterior at most 1e-9 above 0.5, or ``None``.

    The miss posterior falls and the hit posterior rises with the
    target's rate, so the screen accepts on an interval of rates;
    bisection finds its upper end, where the miss posterior crosses 0.5.
    """
    grid = np.geomspace(1e-3, 1e3, 25) * max(config.universe.rates)
    accepted = [
        rate
        for rate in grid
        if min(_exact_posteriors(_with_target_rate(config, rate), flow)) > 0.5
    ]
    if not accepted:
        return None
    low = accepted[-1]
    high = grid[min(np.searchsorted(grid, low) + 1, len(grid) - 1)]
    if high == low:
        return None
    for _ in range(60):
        mid = math.sqrt(low * high)
        miss, hit = _exact_posteriors(_with_target_rate(config, mid), flow)
        if miss > 0.5 and hit > 0.5:
            low = mid
        else:
            high = mid
    near = _with_target_rate(config, low)
    if min(_exact_posteriors(near, flow)) - 0.5 > 1e-9:
        return None
    return near


class TestAdversarialCut:
    """Candidates whose exact posterior sits just above 0.5 are never
    certified rejected on the strength of that posterior."""

    def test_certifier_falls_back_just_above_the_cut(self):
        params = tiny_experiment_params()
        found = 0
        for config in sample_candidates(params, 12, seed=4242):
            for flow in range(len(config.universe)):
                if flow == config.target_flow:
                    continue
                near = _near_cut(config, flow)
                if near is None:
                    continue
                found += 1
                model = CompactModel(
                    near.policy, near.universe, near.delta, near.cache_size
                )
                quantities = fastscreen.fast_quantities(
                    model, near.target_flow, near.window_steps
                )
                certifier = fastscreen._Certifier(
                    model, quantities, near.target_flow, False
                )
                assert certifier.verdict(flow) in fastscreen.FALLBACKS
                # The whole candidate: a certificate must agree with the
                # exact screen.
                outcome = fastscreen.screen_candidate(
                    near, require_optimal_differs=False
                )
                if outcome.certified_reject:
                    harness = ConfigHarness(
                        near, params, rng=np.random.default_rng(0), model=model
                    )
                    assert not harness.is_screened_in()
        assert found >= 3

    @pytest.mark.parametrize("p", [3e-4, 1e-3, 1e-2, 0.1, 0.5, 0.9])
    def test_worst_case_replica_never_crosses_the_cut(self, p):
        # Exact posteriors 0.5 + tiny on both sides; the replica moves
        # every probability by up to the bound, in every direction.
        bounds = fastscreen.error_bounds(1500, 2510, 146, 8, 1.0)
        tol = bounds.sums
        exact_joint = p * (0.5 + 1e-12)
        for d_joint in (-tol, 0.0, tol):
            for d_p in (-tol, 0.0, tol):
                replica_p = p + d_p
                replica_joint = exact_joint + d_joint
                posterior = min(max(replica_joint, 0.0), replica_p) / replica_p
                quantities = fastscreen.FastQuantities(
                    gains=np.zeros(1),
                    p_hit=np.array([replica_p]),
                    p_miss=np.array([replica_p]),
                    posterior_absent_given_miss=np.array([posterior]),
                    posterior_present_given_hit=np.array([1.0 - posterior]),
                    bounds=bounds,
                )
                certifier = fastscreen._Certifier(None, quantities, 1, False)
                assert certifier.verdict(0) in fastscreen.FALLBACKS

    def test_replica_well_below_the_cut_is_rejected(self):
        bounds = fastscreen.error_bounds(1500, 2510, 146, 8, 1.0)
        p = 0.1
        posterior = 0.5 - 2 * bounds.posterior(p)
        quantities = fastscreen.FastQuantities(
            gains=np.zeros(1),
            p_hit=np.array([p]),
            p_miss=np.array([p]),
            posterior_absent_given_miss=np.array([posterior]),
            posterior_present_given_hit=np.array([0.9]),
            bounds=bounds,
        )
        certifier = fastscreen._Certifier(None, quantities, 1, False)
        assert certifier.verdict(0) == "margin"


class _StartedModel(CompactModel):
    """A switch that starts with rule 0 cached instead of empty."""

    def initial_distribution(self):
        return point_distribution(
            self.n_states, self.index_of(mask_from_indices([0]), "start state")
        )


class TestExactZeros:
    """An outcome side without mass is exactly 0.0 on every path.

    Rule 0 covers flow 0 alone, is cached at the start and never leaves:
    flow 0 arrives often enough that the rule's expiry hazard underflows
    to exactly 0, and the cache holds every rule that can arrive, so
    nothing is evicted.  Every state that carries mass therefore covers
    a probe of flow 0.  Flow 8 has rate 0, so the rule only it installs
    never arrives: no state that carries mass covers a probe of flow 8.
    The model's other rules spread the mass over 64 states, where
    ``rowsum - hit`` leaves a one-ulp residue on the empty side of flow 0
    (in the exact and the float32 sums alike, with this window).
    """

    WINDOW = 44
    TARGET = 1
    ALL, NONE = 0, 8

    @pytest.fixture(scope="class")
    def model(self):
        policy = make_policy(
            [({0}, 200), ({1}, 3), ({2}, 4), ({3, 4}, 5), ({4, 5}, 6),
             ({6}, 4), ({7}, 5), ({8}, 5)]
        )
        universe = make_universe([40.0, 1.2, 1e-5, 1.5, 0.9, 3e-5, 0.7, 1.3, 0.0])
        return _StartedModel(policy, universe, 0.5, cache_size=7)

    @pytest.fixture(scope="class")
    def inference(self, model):
        return ReconInference(model, self.TARGET, self.WINDOW)

    @staticmethod
    def _empty_side(flow):
        """Index of the outcome without mass: miss for ALL, hit for NONE."""
        return 0 if flow == TestExactZeros.ALL else 1

    @pytest.mark.parametrize("flow", [ALL, NONE])
    def test_outcome_table_and_engine_split(self, inference, flow):
        side = self._empty_side(flow)
        table = inference.outcome_table((flow,))
        assert (side,) not in table.outcome_probs
        assert (side,) not in table.joint_absent
        assert table.outcome_probs[(1 - side,)] > 0.5
        outcome_probs, joint_absent = inference.outcome_arrays((), (flow,))
        assert outcome_probs[side, 0] == 0.0
        assert joint_absent[side, 0] == 0.0

    @pytest.mark.parametrize("flow", [ALL, NONE])
    def test_fast_quantities(self, model, flow):
        fast = fastscreen.fast_quantities(model, self.TARGET, self.WINDOW)
        empty = fast.p_miss if flow == self.ALL else fast.p_hit
        full = fast.p_hit if flow == self.ALL else fast.p_miss
        assert empty[flow] == 0.0
        assert full[flow] > 0.5

    @pytest.mark.parametrize("flow", [ALL, NONE])
    def test_screen_rejects_by_reachability(self, model, inference, flow):
        assert not paper_screen(inference, flow)
        fast = fastscreen.fast_quantities(model, self.TARGET, self.WINDOW)
        certifier = fastscreen._Certifier(
            model, fast, self.TARGET, require_optimal_differs=False
        )
        assert certifier.verdict(flow) == "unreachable"
