"""Robustness sweep: attacker accuracy as a function of fault rate.

The paper's evaluation (Figure 6) assumes a clean control channel.
This sweep measures how the reconnaissance accuracy of each attacker
degrades when the simulated network misbehaves: one set of screened
configurations is sampled **once**, then re-evaluated at each fault
rate from the same generator state (restored before every rate, as the
defend grid does per cell), so every rate replays the same trial seeds
and random-attacker verdicts and the curves differ only in the injected
faults, never in the sampled worlds or schedules.

Screening matches Figure 7 (viability only), not Figure 6's extra
"optimal probe differs from target" restriction: that restriction
accepts well under 1% of sampled configurations even in the viable
absence band, and the sweep compares *degradation*, which does not
need the case split.  When the spec still carries the full default
absence range, it is narrowed to the viable band (the screens accept
essentially nothing below 0.35; see EXPERIMENTS.md).

Expected shape (EXPERIMENTS.md): the *probe's information* decays with
the fault rate while the model attacker stays at or above the naive
attacker (its decision tree marginalises unanswered probes instead of
assuming a miss).  Note the floor: an unanswered probe degrades the
attacker to prior-MAP guessing, and in the viable absence band the
prior alone is already ~0.7 accurate -- so accuracy falls toward the
prior-MAP floor as the rate approaches 1, not toward the random
baseline.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.harness import (
    ConfigHarness,
    ConfigResult,
    sample_screened_harnesses,
)
from repro.experiments.params import ExperimentParams
from repro.faults import FAULT_KINDS, FaultPlan
from repro.obs import Instrumentation, get_instrumentation, use_instrumentation

if TYPE_CHECKING:
    from repro.apispec import JobSpec

#: Loss kinds swept by default (the two that directly starve probes).
DEFAULT_KINDS: Tuple[str, ...] = ("packet_in_loss", "probe_reply_loss")

#: Default fault-rate grid.
DEFAULT_RATES: Tuple[float, ...] = (0.0, 0.05, 0.1, 0.2, 0.4)

#: Absence band substituted for the full default range; mirrors the
#: union of :data:`~repro.experiments.params.VIABLE_FIG6_BINS`.
_VIABLE_ABSENCE: Tuple[float, float] = (0.35, 0.95)

#: Candidates sampled per requested configuration before screening
#: gives up (the robustness and defend sweeps alike).
MAX_ATTEMPTS_FACTOR = 400

#: Metric names snapshotted per rate from the inner instrumentation.
_SWEEP_COUNTERS: Tuple[str, ...] = tuple(
    f"faults.injected.{kind}" for kind in FAULT_KINDS
) + (
    "attacker.probe.retries",
    "attacker.probe.unobserved",
    "experiment.pool.fallbacks",
)


@dataclass
class RobustnessResult:
    """Accuracy-vs-fault-rate curves over one fixed configuration set."""

    rates: Tuple[float, ...]
    kinds: Tuple[str, ...]
    probe_retries: int
    results_per_rate: List[List[ConfigResult]] = field(repr=False)
    #: Per-rate fault/retry counter totals (``faults.injected.*`` etc.).
    counters_per_rate: List[Dict[str, int]] = field(default_factory=list)
    #: Pool maps (screening and trials) re-run in the parent after a
    #: pool failure.
    pool_fallbacks: int = 0

    def accuracy_series(self) -> Dict[str, List[Optional[float]]]:
        """Per-rate mean accuracy for every attacker in the lineup."""
        names = sorted(
            {
                name
                for bucket in self.results_per_rate
                for result in bucket
                for name in result.accuracies
            }
        )
        series: Dict[str, List[Optional[float]]] = {n: [] for n in names}
        for bucket in self.results_per_rate:
            for name in names:
                values = [
                    r.accuracies[name] for r in bucket if name in r.accuracies
                ]
                series[name].append(
                    sum(values) / len(values) if values else None
                )
        return series

    def faults_injected(self) -> List[int]:
        """Total injected faults at each rate (all kinds pooled)."""
        return [
            sum(
                value
                for name, value in counters.items()
                if name.startswith("faults.injected.")
            )
            for counters in self.counters_per_rate
        ]

    def summary(self) -> Dict[str, float]:
        """Headline numbers: endpoint accuracies and degradation."""
        series = self.accuracy_series()

        def _at(name: str, index: int) -> float:
            values = series.get(name, [])
            value = values[index] if values else None
            return float(value) if value is not None else float("nan")

        return {
            "n_rates": float(len(self.rates)),
            "n_configs": float(
                len(self.results_per_rate[0]) if self.results_per_rate else 0
            ),
            "probe_retries": float(self.probe_retries),
            "model_accuracy_clean": _at("model", 0),
            "naive_accuracy_clean": _at("naive", 0),
            "model_accuracy_worst": _at("model", len(self.rates) - 1),
            "naive_accuracy_worst": _at("naive", len(self.rates) - 1),
            "model_minus_naive_clean": _at("model", 0) - _at("naive", 0),
            "total_faults_injected": float(sum(self.faults_injected())),
        }


def forward_counters(
    inner: Instrumentation,
    outer: Instrumentation,
    names: Sequence[str],
) -> Dict[str, int]:
    """Totals of ``names`` on ``inner``; all of ``inner`` goes to ``outer``.

    The sweeps count each rate or cell on a private backend; merging its
    counters and histograms into ``outer`` keeps the session's
    ``--metrics`` output whole.
    """
    counters = {
        name: int(inner.metrics.counter(name).value) for name in names
    }
    if outer.enabled:
        outer.metrics.merge(inner.metrics)
    return counters


def shared_generators(
    harnesses: Sequence[ConfigHarness],
) -> List[np.random.Generator]:
    """The distinct generator objects the harnesses draw trials from.

    ``sample_screened_harnesses`` hands every harness (and its random
    attacker) the *same* generator, so this is normally a one-element
    list -- but identity-dedup keeps the restore correct even if that
    sharing ever changes.
    """
    generators: List[np.random.Generator] = []
    for harness in harnesses:
        for generator in (harness.rng, harness.random_attacker._rng):
            if not any(generator is seen for seen in generators):
                generators.append(generator)
    return generators


def snapshot_states(
    generators: Sequence[np.random.Generator],
) -> List[Dict[str, object]]:
    """Copies of the generators' bit-generator states."""
    return [copy.deepcopy(g.bit_generator.state) for g in generators]


def restore_states(
    generators: Sequence[np.random.Generator],
    states: Sequence[Dict[str, object]],
) -> None:
    """Rewind each generator to its :func:`snapshot_states` copy."""
    for generator, state in zip(generators, states):
        generator.bit_generator.state = copy.deepcopy(state)


def sweep_axes(
    spec: "JobSpec", params: ExperimentParams, default_rates: Tuple[float, ...]
) -> Tuple[ExperimentParams, Tuple[float, ...], Tuple[str, ...], FaultPlan]:
    """``params``, rates, kinds and base fault plan of a sweep over ``spec``.

    The rates are ``spec.rates`` or ``default_rates`` (empty raises
    ``ValueError``), the kinds ``spec.kinds`` or :data:`DEFAULT_KINDS`
    (an unknown kind raises here, before any sampling), and the base
    plan ``spec.fault_plan`` or an all-zero plan.  A spec with the full
    default absence range samples from :data:`_VIABLE_ABSENCE` instead.
    """
    rates = spec.rates if spec.rates is not None else default_rates
    if not rates:
        raise ValueError("rates must be non-empty")
    kinds = spec.kinds if spec.kinds is not None else DEFAULT_KINDS
    base_plan = params.fault_plan or FaultPlan()
    # Validate the kinds eagerly (with_rate raises on unknown names).
    base_plan.with_rate(kinds, 0.0)
    if params.config.absence_range == (0.0, 1.0):
        params = params.with_absence_range(*_VIABLE_ABSENCE)
    return params, rates, kinds, base_plan


def run_robustness(spec: "JobSpec") -> RobustnessResult:
    """Run the accuracy-vs-fault-rate sweep ``spec`` describes.

    ``spec`` is a :class:`~repro.apispec.JobSpec`; anything else raises
    ``TypeError``.  Its ``rates``/``kinds`` fields (or the module
    defaults) supply the grid, and ``spec.fault_plan`` (or an all-zero
    plan) is the base: each swept rate is applied to every kind on top
    of it (:func:`sweep_axes`).  The screened configurations are
    sampled once and the shared generator is restored before every
    rate, so each rate re-trials the same worlds with the same trial
    seeds and random-attacker draws; ``spec.probe_retries`` governs the
    attacker's retransmission budget throughout.
    """
    from repro.apispec import require_spec

    spec, params = require_spec(spec, caller="run_robustness")
    params, rates, kinds, base_plan = sweep_axes(spec, params, DEFAULT_RATES)

    outer = get_instrumentation()
    with outer.span(
        "experiment.robustness", rates=len(rates), kinds=",".join(kinds)
    ):
        harnesses = sample_screened_harnesses(
            params,
            params.n_configs,
            max_attempts_factor=MAX_ATTEMPTS_FACTOR,
        )
        fallbacks = harnesses.pool_fallbacks
        generators = shared_generators(harnesses)
        states = snapshot_states(generators)
        results_per_rate: List[List[ConfigResult]] = []
        counters_per_rate: List[Dict[str, int]] = []
        for rate in rates:
            plan = base_plan.with_rate(kinds, rate)
            # Fault/retry counters are captured per rate on a private
            # backend (Prober and FaultInjector resolve instruments at
            # construction, inside the trial loop), then re-emitted to
            # the session backend so --metrics output still sees them.
            inner = Instrumentation()
            with outer.span("experiment.robustness.rate", rate=rate):
                restore_states(generators, states)
                with use_instrumentation(inner):
                    bucket = [
                        harness.run_trials(
                            fault_plan=plan,
                            probe_retries=params.probe_retries,
                        )
                        for harness in harnesses
                    ]
            fallbacks += sum(result.pool_fallbacks for result in bucket)
            counters = forward_counters(inner, outer, _SWEEP_COUNTERS)
            results_per_rate.append(bucket)
            counters_per_rate.append(counters)
    return RobustnessResult(
        rates=rates,
        kinds=kinds,
        probe_retries=params.probe_retries,
        results_per_rate=results_per_rate,
        counters_per_rate=counters_per_rate,
        pool_fallbacks=fallbacks,
    )
