"""Per-configuration harness: model fit, probe choice, trial loop.

:class:`ConfigHarness` owns everything derived from one sampled network
configuration: the compact model, the fitted inference object, the
attacker lineup (naive / model / constrained / random), the paper's
detector-viability screen, and the trial loop producing accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.attacker import (
    Attacker,
    ConstrainedModelAttacker,
    ModelAttacker,
    NaiveAttacker,
    RandomAttacker,
)
from repro.core.compact_model import CompactModel
from repro.core.engine import ScoringStats
from repro.core.inference import ReconInference
from repro.core.recency import make_estimator
from repro.deprecation import keyword_only
from repro.experiments.params import ExperimentParams
from repro.faults import FaultPlan
from repro.experiments.parallel import (
    ExecutionStats,
    plan_trials,
    run_planned_trials,
    screen_accepted_configs,
)
from repro.experiments.trials import DefenseFactory, TrialResult, run_trial
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.obs import get_instrumentation
from repro.simulator.timing import LatencyModel


@dataclass
class ConfigResult:
    """Aggregated trial results for one configuration."""

    config: NetworkConfiguration
    accuracies: Dict[str, float]
    trials: int
    screened: bool
    optimal_probe: int
    optimal_is_target: bool
    prior_absent: float
    n_rules_covering_target: int
    #: Whether the rule a target miss installs covers only the target
    #: (the regime where no sibling probe can see the target's tracks;
    #: see repro.analysis.structure).
    target_install_exclusive: bool = False
    trial_results: List[TrialResult] = field(default_factory=list, repr=False)

    @property
    def improvement(self) -> float:
        """Additive accuracy improvement of model over naive (Fig. 6b)."""
        return self.accuracies["model"] - self.accuracies["naive"]

    @property
    def constrained_improvement(self) -> float:
        """Constrained-model accuracy minus naive (Fig. 7 comparison)."""
        return self.accuracies["constrained"] - self.accuracies["naive"]


class ConfigHarness:
    """Everything derived from one network configuration."""

    @keyword_only
    def __init__(
        self,
        config: NetworkConfiguration,
        params: ExperimentParams,
        *,
        rng: Optional[np.random.Generator] = None,
        latency: Optional[LatencyModel] = None,
        model: Optional[CompactModel] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(params.seed)
        self.latency = latency
        obs = get_instrumentation()
        self._obs = obs

        with obs.phase("harness.model_build"), obs.span(
            "harness.model_build",
            n_flows=len(config.universe),
            cache_size=config.cache_size,
        ):
            # ``model`` lets the fast screen hand over the CompactModel
            # it already built for this configuration instead of paying
            # for a second identical build (repro.experiments.fastscreen).
            self.model = model if model is not None else CompactModel(
                config.policy,
                config.universe,
                config.delta,
                config.cache_size,
            )
            if params.estimator != "independent":
                self.model.estimator = make_estimator(
                    params.estimator, self.model.context
                )
            self.inference = ReconInference(
                self.model, config.target_flow, config.window_steps
            )

        self.naive_attacker = NaiveAttacker(config.target_flow)
        with obs.phase("harness.probe_selection"), obs.span(
            "harness.probe_selection", n_probes=params.n_probes
        ):
            self.model_attacker = ModelAttacker(
                self.inference,
                n_probes=params.n_probes,
                decision=params.decision,
                n_jobs=params.selection_n_jobs,
            )
        # Built on first use: the screens only consult the model
        # attacker's probe choice, so rejection-sampled candidates never
        # pay for the constrained selection.
        self._constrained_attacker: Optional[ConstrainedModelAttacker] = None
        self.random_attacker = RandomAttacker(
            prior_present=1.0 - self.inference.prior_absent(),
            rng=self.rng,
            mode=params.random_attacker_mode,
        )
        obs.metrics.counter("experiment.harnesses_built").inc()

    @property
    def constrained_attacker(self) -> ConstrainedModelAttacker:
        """The Figure 7 attacker, selected lazily on first use."""
        if self._constrained_attacker is None:
            with self._obs.phase("harness.probe_selection"), self._obs.span(
                "harness.probe_selection", n_probes=self.params.n_probes
            ):
                self._constrained_attacker = ConstrainedModelAttacker(
                    self.inference,
                    n_probes=self.params.n_probes,
                    decision=self.params.constrained_decision,
                    n_jobs=self.params.selection_n_jobs,
                )
        return self._constrained_attacker

    @property
    def scoring_stats(self) -> Optional[ScoringStats]:
        """Engine instrumentation from the model attacker's selection."""
        return self.model_attacker.choice.stats

    @classmethod
    def sample(
        cls,
        params: ExperimentParams,
        generator: Optional[ConfigGenerator] = None,
    ) -> "ConfigHarness":
        """Sample a fresh configuration under ``params`` and wrap it."""
        generator = generator or ConfigGenerator(params.config, seed=params.seed)
        config = generator.sample()
        return cls(config, params, rng=generator.rng)

    # ------------------------------------------------------------------
    # Paper screens
    # ------------------------------------------------------------------
    def is_screened_in(self) -> bool:
        """The Section VI-B viability screen, applied to the optimal probe."""
        from repro.experiments.screening import paper_screen

        return paper_screen(self.inference, self.model_attacker.probes[0])

    def optimal_differs_from_target(self) -> bool:
        """Figure 6's extra restriction: optimal probe != target flow."""
        return self.model_attacker.probes[0] != self.config.target_flow

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------
    def attackers(self) -> Tuple[Attacker, ...]:
        """The standard lineup evaluated in every trial."""
        return (
            self.naive_attacker,
            self.model_attacker,
            self.constrained_attacker,
            self.random_attacker,
        )

    @keyword_only
    def run_trials(
        self,
        *,
        n_trials: Optional[int] = None,
        attackers: Optional[Sequence[Attacker]] = None,
        keep_trials: bool = False,
        defense_factory: Optional[DefenseFactory] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe_retries: Optional[int] = None,
        trial_jobs: Optional[int] = None,
        execution: Optional[ExecutionStats] = None,
    ) -> ConfigResult:
        """Run the trial loop and aggregate accuracies.

        ``fault_plan`` / ``probe_retries`` override the values carried
        by ``self.params`` (used by the robustness sweep to reuse one
        set of screened harnesses across fault rates).  ``trial_jobs``
        overrides ``params.trial_jobs``; any value > 1 fans the trials
        out across a fork pool with bit-identical results
        (repro.experiments.parallel).
        """
        n_trials = n_trials if n_trials is not None else self.params.n_trials
        if fault_plan is None:
            fault_plan = self.params.fault_plan
        if probe_retries is None:
            probe_retries = self.params.probe_retries
        if trial_jobs is None:
            trial_jobs = self.params.trial_jobs
        lineup = tuple(attackers) if attackers is not None else self.attackers()
        names = [attacker.name for attacker in lineup]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                "duplicate attacker name(s) in lineup: "
                + ", ".join(duplicates)
            )
        correct = {name: 0 for name in names}
        kept: List[TrialResult] = []
        obs = self._obs
        trial_counter = obs.metrics.counter("experiment.trials")
        with obs.phase("harness.trials"):
            if trial_jobs > 1:
                with obs.span(
                    "experiment.trial_batch",
                    trials=n_trials,
                    jobs=trial_jobs,
                    mode=self.params.trial_mode,
                ):
                    plans = plan_trials(self.rng, lineup, n_trials)
                    results = run_planned_trials(
                        self.config,
                        lineup,
                        plans,
                        n_jobs=trial_jobs,
                        mode=self.params.trial_mode,
                        latency=self.latency,
                        defense_factory=defense_factory,
                        fault_plan=fault_plan,
                        probe_retries=probe_retries,
                        execution=execution,
                    )
                trial_counter.inc(n_trials)
                for trial in results:
                    for name in names:
                        if trial.correct(name):
                            correct[name] += 1
                if keep_trials:
                    kept.extend(results)
            else:
                for index in range(n_trials):
                    seed = int(self.rng.integers(2**63 - 1))
                    with obs.span(
                        "experiment.trial",
                        trial=index,
                        mode=self.params.trial_mode,
                    ):
                        trial = run_trial(
                            self.config,
                            lineup,
                            seed,
                            mode=self.params.trial_mode,
                            latency=self.latency,
                            defense_factory=defense_factory,
                            fault_plan=fault_plan,
                            probe_retries=probe_retries,
                        )
                    trial_counter.inc()
                    for name in names:
                        if trial.correct(name):
                            correct[name] += 1
                    if keep_trials:
                        kept.append(trial)
        accuracies = {
            name: count / n_trials for name, count in correct.items()
        }
        from repro.analysis.structure import target_structure

        structure = target_structure(
            self.config.policy, self.config.target_flow
        )
        return ConfigResult(
            config=self.config,
            accuracies=accuracies,
            trials=n_trials,
            screened=self.is_screened_in(),
            optimal_probe=self.model_attacker.probes[0],
            optimal_is_target=not self.optimal_differs_from_target(),
            prior_absent=self.inference.prior_absent(),
            n_rules_covering_target=len(self.config.rules_covering_target()),
            target_install_exclusive=structure.install_rule_is_exclusive,
            trial_results=kept,
        )


@keyword_only
def sample_screened_harnesses(
    params: ExperimentParams,
    n_configs: int,
    *,
    require_optimal_differs: bool = False,
    max_attempts_factor: int = 40,
    generator: Optional[ConfigGenerator] = None,
    trial_jobs: Optional[int] = None,
    execution: Optional[ExecutionStats] = None,
) -> List[ConfigHarness]:
    """Sample configurations until ``n_configs`` pass the screens.

    Mirrors the paper's procedure of restricting attention to
    configurations where the side channel can work at all
    (``screen=True`` in params), optionally also requiring the
    model-optimal probe to differ from the target (Figure 6's case
    split).  Raises ``RuntimeError`` if the acceptance rate is too low.

    With ``trial_jobs`` (or ``params.trial_jobs``) > 1 the candidate
    screening fans out across a fork pool; the accepted configurations,
    the generator's post-call state, and the exhaustion error are all
    identical to the serial loop (repro.experiments.parallel).
    """
    generator = generator or ConfigGenerator(params.config, seed=params.seed)
    if trial_jobs is None:
        trial_jobs = params.trial_jobs
    if trial_jobs > 1:
        configs = screen_accepted_configs(
            params,
            n_configs,
            require_optimal_differs=require_optimal_differs,
            max_attempts_factor=max_attempts_factor,
            generator=generator,
            n_jobs=trial_jobs,
            execution=execution,
        )
        harnesses = [
            ConfigHarness(config, params, rng=generator.rng)
            for config in configs
        ]
        if execution is not None:
            execution.harness_builds += len(harnesses)
        return harnesses
    from repro.experiments import fastscreen

    harnesses: List[ConfigHarness] = []
    attempts = 0
    max_attempts = max(1, n_configs) * max_attempts_factor
    obs = get_instrumentation()
    sampled = obs.metrics.counter("experiment.configs_sampled")
    screened_out = obs.metrics.counter("experiment.configs_screened_out")
    fast = fastscreen.supports(params)
    while len(harnesses) < n_configs:
        attempts += 1
        if attempts > max_attempts:
            raise RuntimeError(
                f"only {len(harnesses)}/{n_configs} configurations accepted "
                f"after {attempts} attempts; relax the screens or the "
                "absence range"
            )
        if fast:
            # Certified float32 pre-screen: rejects only when the
            # rejection is provable within calibrated error bounds, so
            # accepted harnesses (and the generator's RNG stream) are
            # bit-identical to the reference loop below.
            config = generator.sample()
            sampled.inc()
            outcome = fastscreen.screen_candidate(
                params, config, require_optimal_differs=require_optimal_differs
            )
            if outcome.certified_reject:
                screened_out.inc()
                continue
            harness = ConfigHarness(
                config, params, rng=generator.rng, model=outcome.model
            )
        else:
            harness = ConfigHarness.sample(params, generator=generator)
            sampled.inc()
        if params.screen and not harness.is_screened_in():
            screened_out.inc()
            continue
        if require_optimal_differs and not harness.optimal_differs_from_target():
            screened_out.inc()
            continue
        harnesses.append(harness)
    return harnesses
