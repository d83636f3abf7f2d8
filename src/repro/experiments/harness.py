"""Per-configuration harness: model fit, probe choice, trial loop.

:class:`ConfigHarness` owns everything derived from one sampled network
configuration: the compact model, the fitted inference object, the
attacker lineup (naive / model / constrained / random), the paper's
detector-viability screen, and the trial loop producing accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, ClassVar, Dict, List, Optional, Sequence, Tuple, Type,
    TypeVar,
)

import numpy as np

from repro.core.attacker import (
    Attacker,
    ConstrainedModelAttacker,
    ModelAttacker,
    NaiveAttacker,
    RandomAttacker,
)
from repro.core.compact_model import CompactModel
from repro.core.inference import ReconInference
from repro.experiments.params import ExperimentParams, split_configs
from repro.faults import FaultPlan
from repro.experiments.parallel import (
    SCREEN_BATCH_PER_WORKER,
    ScreenContext,
    plan_trials,
    run_planned_trials,
    screening_verdicts,
)
from repro.experiments.trials import DefenseFactory, TrialResult
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.obs import get_instrumentation
from repro.parallel import ForkPool

if TYPE_CHECKING:
    from repro.apispec import JobSpec


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
    target_install_exclusive: bool
    #: The trials behind ``accuracies``, in trial order.
    trial_results: List[TrialResult] = field(repr=False)
    #: Trial maps re-run in the parent after a pool failure (0 or 1);
    #: set by :meth:`ConfigHarness.run_trials`.
    pool_fallbacks: int = field(default=0, init=False)

    @property
    def improvement(self) -> float:
        """Additive accuracy improvement of model over naive (Fig. 6b)."""
        return self.accuracies["model"] - self.accuracies["naive"]


def mean_accuracy(bucket: Sequence[ConfigResult], name: str) -> float:
    """Mean accuracy of attacker ``name`` over a non-empty bucket."""
    return sum(r.accuracies[name] for r in bucket) / len(bucket)


class ConfigHarness:
    """Everything derived from one network configuration."""

    def __init__(
        self,
        config: NetworkConfiguration,
        params: ExperimentParams,
        *,
        rng: Optional[np.random.Generator] = None,
        model: Optional[CompactModel] = None,
    ) -> None:
        self.config = config
        self.params = params
        self.rng = rng if rng is not None else np.random.default_rng(params.seed)
        obs = get_instrumentation()
        self._obs = obs

        # ``model`` lets the fast screen hand over the CompactModel it
        # already built for this configuration instead of paying for a
        # second identical build (repro.experiments.fastscreen).
        if model is None:
            with obs.span(
                "harness.model_build",
                n_flows=len(config.universe),
                cache_size=config.cache_size,
            ):
                model = CompactModel(
                    config.policy,
                    config.universe,
                    config.delta,
                    config.cache_size,
                )
        self.model = model
        with obs.span("harness.inference", steps=config.window_steps):
            self.inference = ReconInference(
                model, config.target_flow, config.window_steps
            )

        self.naive_attacker = NaiveAttacker(config.target_flow)
        with obs.span(
            "harness.probe_selection", n_probes=params.n_probes
        ):
            # The paper's model attacker returns the query bit, which
            # the viability screen makes sound for the optimal probe.
            self.model_attacker = ModelAttacker(
                self.inference, n_probes=params.n_probes, decision="query"
            )
        # Built on first use: the screens only consult the model
        # attacker's probe choice, so rejection-sampled candidates never
        # pay for the constrained selection.
        self._constrained_attacker: Optional[ConstrainedModelAttacker] = None
        self.random_attacker = RandomAttacker(
            prior_present=1.0 - self.inference.prior_absent(),
            rng=self.rng,
        )
        obs.metrics.counter("experiment.harnesses_built").inc()

    @property
    def constrained_attacker(self) -> ConstrainedModelAttacker:
        """The Figure 7 attacker, selected lazily on first use."""
        if self._constrained_attacker is None:
            with self._obs.span(
                "harness.probe_selection", n_probes=self.params.n_probes
            ):
                # Its probe may fail the query-viability condition (the
                # viable probe being exactly the forbidden one), so it
                # classifies through the posterior instead of the bit.
                self._constrained_attacker = ConstrainedModelAttacker(
                    self.inference,
                    n_probes=self.params.n_probes,
                    decision="map",
                )
        return self._constrained_attacker

    @classmethod
    def sample(cls, params: ExperimentParams) -> "ConfigHarness":
        """Sample a fresh configuration under ``params`` and wrap it."""
        generator = ConfigGenerator(params.config, seed=params.seed)
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

    def run_trials(
        self,
        *,
        n_trials: Optional[int] = None,
        attackers: Optional[Sequence[Attacker]] = None,
        defense_factory: Optional[DefenseFactory] = None,
        fault_plan: Optional[FaultPlan] = None,
        probe_retries: Optional[int] = None,
        trial_jobs: Optional[int] = None,
    ) -> ConfigResult:
        """Run the trial loop and aggregate accuracies.

        ``fault_plan`` / ``probe_retries`` override the values carried
        by ``self.params`` (used by the robustness sweep to reuse one
        set of screened harnesses across fault rates).  ``trial_jobs``
        overrides ``params.trial_jobs``: the trials are pre-drawn from
        ``self.rng`` and run in the parent at 1, across a fork pool
        above, with bit-identical results (repro.experiments.parallel).
        """
        n_trials = n_trials if n_trials is not None else self.params.n_trials
        if n_trials < 1:
            raise ValueError("n_configs and n_trials must be >= 1")
        if fault_plan is None:
            fault_plan = self.params.fault_plan
        if probe_retries is None:
            probe_retries = self.params.probe_retries
        if trial_jobs is None:
            trial_jobs = self.params.trial_jobs
        if trial_jobs < 1:
            raise ValueError("trial_jobs must be >= 1")
        lineup = tuple(attackers) if attackers is not None else self.attackers()
        names = [attacker.name for attacker in lineup]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                "duplicate attacker name(s) in lineup: "
                + ", ".join(duplicates)
            )
        obs = self._obs
        with obs.span(
            "experiment.trial_batch",
            trials=n_trials,
            jobs=trial_jobs,
            mode=self.params.trial_mode,
        ):
            results, fallbacks = run_planned_trials(
                self.config,
                lineup,
                plan_trials(self.rng, lineup, n_trials),
                n_jobs=trial_jobs,
                mode=self.params.trial_mode,
                defense_factory=defense_factory,
                fault_plan=fault_plan,
                probe_retries=probe_retries,
            )
        obs.metrics.counter("experiment.trials").inc(n_trials)
        result = self.config_result(names, results)
        result.pool_fallbacks = fallbacks
        return result

    def config_result(
        self,
        names: Sequence[str],
        results: Sequence[TrialResult],
    ) -> ConfigResult:
        """Aggregate finished trials into this configuration's result."""
        accuracies = {
            name: sum(1 for trial in results if trial.correct(name))
            / len(results)
            for name in names
        }
        from repro.analysis.structure import target_structure

        structure = target_structure(
            self.config.policy, self.config.target_flow
        )
        return ConfigResult(
            config=self.config,
            accuracies=accuracies,
            trials=len(results),
            screened=self.is_screened_in(),
            optimal_probe=self.model_attacker.probes[0],
            optimal_is_target=not self.optimal_differs_from_target(),
            prior_absent=self.inference.prior_absent(),
            n_rules_covering_target=len(self.config.rules_covering_target()),
            target_install_exclusive=structure.install_rule_is_exclusive,
            trial_results=list(results),
        )


class ScreenedHarnesses(List[ConfigHarness]):
    """The accepted harnesses, in acceptance order."""

    #: Screening maps re-run in the parent after a pool failure (0 or 1).
    pool_fallbacks: int = 0


def sample_screened_harnesses(
    params: ExperimentParams,
    n_configs: int,
    *,
    require_optimal_differs: bool = False,
    max_attempts_factor: int = 40,
    generator: Optional[ConfigGenerator] = None,
) -> ScreenedHarnesses:
    """Sample configurations until ``n_configs`` pass the screens.

    Mirrors the paper's procedure of restricting attention to
    configurations where the side channel can work at all (the
    Section VI-B viability screen), optionally also requiring the
    model-optimal probe to differ from the target (Figure 6's case
    split).  Raises ``RuntimeError`` if the acceptance rate is too low.

    Candidates are sampled from ``generator`` here, the only place its
    stream is consumed, and screened by
    :func:`~repro.experiments.parallel.screening_verdicts` through a
    :class:`~repro.parallel.ForkPool` of ``params.trial_jobs`` workers.
    Every accepted harness holds ``generator.rng``, as does its random
    attacker.

    * **In the parent** (``trial_jobs <= 1``, no fork, or already inside
      a pool worker) each batch is one candidate: ``generator.sample``
      runs once per attempt, and the screen builds the harness on
      ``generator.rng`` that is then accepted as is.
    * **Pooled**, batches of ``SCREEN_BATCH_PER_WORKER * trial_jobs``
      candidates are sampled ahead, each sample's post-draw generator
      state is recorded, and workers return verdicts only.  Accepted
      configurations are rebuilt here; once the quota is met mid-batch
      the generator is rewound to just after the last consumed sample.
      A dead pool degrades to screening in the parent with the same
      outcome; the returned list's ``pool_fallbacks`` is then 1.  The
      sampling and exact-reject counters count consumed candidates only.

    Acceptance runs in attempt order, so the accepted configurations,
    the generator's post-call state, and the exhaustion error are the
    same for every ``trial_jobs`` (repro.experiments.parallel).
    """
    generator = generator or ConfigGenerator(params.config, seed=params.seed)
    trial_jobs = params.trial_jobs
    obs = get_instrumentation()
    sampled = obs.metrics.counter("experiment.configs_sampled")
    screened_out = obs.metrics.counter("experiment.configs_screened_out")
    max_attempts = max(1, n_configs) * max_attempts_factor
    harnesses = ScreenedHarnesses()
    attempts = 0
    pool = ForkPool(trial_jobs, name="experiment")
    # Decided once, before the first map creates any executor: workers
    # must never receive the caller's generator.
    in_parent = not pool.pooled
    pool.shared = ScreenContext(
        params,
        require_optimal_differs,
        rng=generator.rng if in_parent else None,
    )
    batch_size = 1 if in_parent else SCREEN_BATCH_PER_WORKER * trial_jobs
    with obs.span("experiment.screen", configs=n_configs, jobs=trial_jobs):
        try:
            while len(harnesses) < n_configs:
                remaining = max_attempts - attempts
                if remaining <= 0:
                    raise RuntimeError(
                        f"only {len(harnesses)}/{n_configs} configurations "
                        f"accepted after {max_attempts + 1} attempts; relax "
                        "the screens or the absence range"
                    )
                batch: List[NetworkConfiguration] = []
                states: List[dict] = []
                for _ in range(min(batch_size, remaining)):
                    batch.append(generator.sample())
                    states.append(generator.rng.bit_generator.state)
                # The previous batch's verdicts stay referenced until this
                # map returns (see screening_verdicts on why that matters).
                verdicts = pool.map(screening_verdicts, batch)
                for config, state, (rejected_by, built) in zip(
                    batch, states, verdicts
                ):
                    attempts += 1
                    sampled.inc()
                    if rejected_by is not None:
                        screened_out.inc()
                        # An exact rejection is counted by its reason.
                        if rejected_by == "viability":
                            obs.metrics.counter(
                                "experiment.exact_screen_reject_viability"
                            ).inc()
                        elif rejected_by == "target":
                            obs.metrics.counter(
                                "experiment.exact_screen_reject_target"
                            ).inc()
                        continue
                    if isinstance(built, ConfigHarness):
                        harness = built
                    else:
                        harness = ConfigHarness(
                            config, params, rng=generator.rng
                        )
                    harnesses.append(harness)
                    if len(harnesses) == n_configs:
                        # Rewind past the speculative tail: the generator
                        # resumes just after the last consumed sample.
                        generator.rng.bit_generator.state = state
                        break
            harnesses.pool_fallbacks = pool.fallbacks
            return harnesses
        finally:
            pool.close()


@dataclass
class BinnedResult:
    """Configurations sampled per absence-probability bin (Figures 6, 7)."""

    #: The attackers :meth:`accuracy_series` plots.
    ATTACKERS: ClassVar[Tuple[str, ...]] = ()

    bins: Tuple[Tuple[float, float], ...]
    results_per_bin: List[List[ConfigResult]] = field(repr=False)
    #: Pool maps (screening and trials) re-run in the parent after a
    #: pool failure.
    pool_fallbacks: int = 0

    def _all_results(self) -> List[ConfigResult]:
        return [r for bucket in self.results_per_bin for r in bucket]

    def accuracy_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-bin mean accuracy of each plotted attacker."""
        return {
            name: [
                mean_accuracy(bucket, name) if bucket else None
                for bucket in self.results_per_bin
            ]
            for name in self.ATTACKERS
        }

    def bin_centers(self) -> List[float]:
        """Midpoints of the absence-probability bins."""
        return [(low + high) / 2 for low, high in self.bins]


Binned = TypeVar("Binned", bound=BinnedResult)


def run_binned(
    result_type: Type[Binned],
    spec: "JobSpec",
    *,
    experiment: str,
    bins: Sequence[Tuple[float, float]],
    require_optimal_differs: bool,
    max_attempts_factor: int,
) -> Binned:
    """Screen and run ``spec``'s configurations bin by bin.

    ``spec`` is a :class:`~repro.apispec.JobSpec`; anything else raises
    ``TypeError``.  Exactly its ``n_configs`` configurations are split
    across the absence ``bins``, the first bins taking the remainder
    (:func:`~repro.experiments.params.split_configs`; fewer than one per
    bin raises ``ValueError``).
    Each bin runs under an ``experiment.<experiment>.bin`` span.
    """
    from repro.apispec import require_spec
    from repro.countermeasures.registry import single_defense_factory

    caller = f"run_{experiment}"
    spec, params = require_spec(spec, caller=caller)
    defense_factory = single_defense_factory(spec.defense, caller=caller)
    bins = tuple(bins)
    counts = split_configs(params.n_configs, len(bins))
    results: List[List[ConfigResult]] = []
    obs = get_instrumentation()
    fallbacks = 0
    for (low, high), per_bin in zip(bins, counts):
        bin_params = params.with_absence_range(low, high)
        with obs.span(f"experiment.{experiment}.bin", low=low, high=high):
            harnesses = sample_screened_harnesses(
                bin_params,
                per_bin,
                require_optimal_differs=require_optimal_differs,
                max_attempts_factor=max_attempts_factor,
            )
            bucket = [
                harness.run_trials(defense_factory=defense_factory)
                for harness in harnesses
            ]
        fallbacks += harnesses.pool_fallbacks + sum(
            result.pool_fallbacks for result in bucket
        )
        results.append(bucket)
    return result_type(bins, results, fallbacks)
