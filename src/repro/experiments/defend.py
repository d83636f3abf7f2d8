"""The countermeasure evaluation grid (``repro-sdn defend``).

The paper closes by *proposing* timing-channel defenses (Section
VII-B) without quantifying them.  This sweep does: one set of screened
configurations is sampled once, then every countermeasure x fault-rate
cell re-runs the full reconnaissance pipeline over **exactly the same
worlds** -- the shared config generator's bit-generator state is
snapshotted after sampling and restored before every cell, so cells
differ only in the attached defense (and the injected faults), never
in the sampled schedules or trial seeds.  That is also what makes the
grid's two contracts testable:

* the ``none`` cell (a :class:`~repro.countermeasures.noop.NoDefense`
  attached through the full factory path) is bit-identical to the
  undefended baseline (no defense object at all);
* the whole grid is bit-identical for any ``--trial-jobs N`` (the
  PR 5 parallel layer plans trial seeds from the same restored state).

Each cell reports four things:

* **attacker accuracy** per attacker in the standard lineup;
* **channel distinguishability**: hit/miss RTT populations sampled
  from fresh defended replicas, their rank AUC, a threshold ROC sweep,
  and the *effective* leakage -- the structural leakage of the rule
  set (:mod:`repro.analysis.leakage`, defense-independent) scaled by
  the binary-symmetric-channel capacity of the best threshold's error
  rate under the defense;
* **online detection**: benign and probed counter-window streams under
  the cell's defense, scored by the seeded :class:`~repro.detect.
  ReconDetector` (calibrated on the same labelled windows -- a
  supervised upper bound, docs/DEFENSES.md);
* **benign cost**: a probe-free background simulation whose defense
  object lives in the parent process (worker-side defenses are
  invisible under ``--trial-jobs``), read out as added delay seconds,
  delayed packet counts and proactively installed rules.

All auxiliary sampling (RTT pairs, detector streams, benign cost) is
keyed by ``(seed, stage, ...)`` sequence seeds with *no* cell index:
every cell, the baseline included, faces the same replica worlds, so
the only thing that varies across a row of the grid is the attached
defense itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.leakage import leakage_map
from repro.analysis.roc import (
    ThresholdPoint,
    roc_points,
    score_auc,
)
from repro.countermeasures.registry import DEFENSE_CHOICES, make_defense
from repro.detect import CounterWindow, ReconDetector, WindowRecorder
from repro.experiments.harness import (
    ConfigHarness,
    ConfigResult,
    sample_screened_harnesses,
)
from repro.experiments.robustness import (
    MAX_ATTEMPTS_FACTOR,
    forward_counters,
    restore_states,
    shared_generators,
    snapshot_states,
    sweep_axes,
)
from repro.faults import FAULT_KINDS
from repro.flows.arrival import sample_schedule
from repro.flows.config import NetworkConfiguration
from repro.obs import Instrumentation, get_instrumentation, use_instrumentation
from repro.simulator.network import Network
from repro.simulator.probing import Prober

if TYPE_CHECKING:
    from repro.apispec import JobSpec

#: The cell label used for the undefended control column (no defense
#: object at all -- distinct from the ``none`` defense, which attaches
#: a real :class:`~repro.countermeasures.noop.NoDefense`).
BASELINE = "baseline"

#: Defense names swept by default: the full registry.
DEFAULT_DEFENSES: Tuple[str, ...] = DEFENSE_CHOICES

#: Fault-rate grid swept by default (clean channel only; set ``rates``
#: to cross defenses with faults).
DEFAULT_RATES: Tuple[float, ...] = (0.0,)

#: RTT sample pairs drawn per configuration for the ROC/leakage stage.
RTT_SAMPLES_PER_CONFIG = 4

#: Thresholds in each cell's persisted ROC sweep.
ROC_CANDIDATES = 21

#: Detector stream shape: windows per class and probes per attack
#: window (the committed fixture scenario; docs/DEFENSES.md).
DETECTOR_WINDOWS = 12
DETECTOR_WINDOW_SECONDS = 1.0
DETECTOR_PROBES_PER_WINDOW = 3

#: Metric names snapshotted per cell from the inner instrumentation.
_CELL_COUNTERS: Tuple[str, ...] = tuple(
    f"faults.injected.{kind}" for kind in FAULT_KINDS
) + (
    "attacker.probe.retries",
    "attacker.probe.unobserved",
    "experiment.pool.fallbacks",
    # defense.packets_observed is deliberately NOT snapshotted: a
    # NoDefense observes packets the bare baseline never counts, and
    # the none-cell == baseline contract is exact equality.  It still
    # reaches --metrics output via the outer backend.
    "defense.packets_delayed",
    "detector.windows.scored",
    "detector.alerts",
)


@dataclass
class DefendCell:
    """One countermeasure x fault-rate evaluation."""

    defense: str
    rate: float
    #: Mean accuracy per attacker over the shared configurations.
    accuracies: Dict[str, float]
    #: P(miss RTT > hit RTT) under the defense: 1.0 = channel wide
    #: open, 0.5 = hit and miss indistinguishable by timing.
    rtt_auc: float
    #: Threshold sweep over the sampled RTT populations.
    roc: List[ThresholdPoint] = field(repr=False)
    #: Accuracy of the best threshold in the sweep.
    best_accuracy: float = 0.5
    #: Structural leakage x BSC capacity of the best threshold.
    effective_leakage_bits: float = 0.0
    #: Rank AUC of the online detector (attack vs benign windows).
    detector_auc: float = 0.5
    #: Fraction of attack windows scoring above the alert threshold.
    detector_alert_rate: float = 0.0
    #: Benign-traffic cost of the defense (probe-free simulation).
    benign_delay_seconds: float = 0.0
    benign_packets_delayed: int = 0
    benign_delay_per_packet: float = 0.0
    rules_installed: int = 0
    #: Fault/defense/detector counter totals for the cell.
    counters: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON view (tuples and dataclasses flattened)."""
        return {
            "defense": self.defense,
            "rate": self.rate,
            "accuracies": dict(self.accuracies),
            "rtt_auc": self.rtt_auc,
            "roc": [
                {
                    "threshold": point.threshold,
                    "true_hit_rate": point.true_hit_rate,
                    "false_hit_rate": point.false_hit_rate,
                    "accuracy": point.accuracy,
                }
                for point in self.roc
            ],
            "best_accuracy": self.best_accuracy,
            "effective_leakage_bits": self.effective_leakage_bits,
            "detector_auc": self.detector_auc,
            "detector_alert_rate": self.detector_alert_rate,
            "benign_delay_seconds": self.benign_delay_seconds,
            "benign_packets_delayed": self.benign_packets_delayed,
            "benign_delay_per_packet": self.benign_delay_per_packet,
            "rules_installed": self.rules_installed,
            "counters": dict(self.counters),
        }


@dataclass
class DefendResult:
    """The full grid plus the undefended baseline column."""

    defenses: Tuple[str, ...]
    rates: Tuple[float, ...]
    kinds: Tuple[str, ...]
    detector_method: str
    probe_retries: int
    #: Mean structural leakage of the sampled rule sets, in bits
    #: (defense-independent; the ceiling every cell's effective
    #: leakage is scaled from).
    structural_leakage_bits: float
    #: Grid cells in (defense-major, rate-minor) order.
    cells: List[DefendCell]
    #: Undefended control cells, one per rate.
    baseline: List[DefendCell]
    #: Per-cell trial results aligned with ``cells`` (for persistence).
    results_per_cell: List[List[ConfigResult]] = field(repr=False)
    #: Baseline trial results aligned with ``baseline``.
    baseline_results: List[List[ConfigResult]] = field(repr=False)
    #: Pool maps (screening and trials) re-run in the parent after a
    #: pool failure.
    pool_fallbacks: int = 0

    def cell(self, defense: str, rate: float) -> DefendCell:
        """The grid cell for this defense name and fault rate."""
        for candidate in self.cells:
            if candidate.defense == defense and candidate.rate == rate:
                return candidate
        raise KeyError(f"no cell for defense={defense!r} rate={rate!r}")

    def summary(self) -> Dict[str, float]:
        """Headline numbers: the clean-channel column of the grid."""
        clean = self.rates[0]
        base = self.baseline[0]
        summary: Dict[str, float] = {
            "n_defenses": float(len(self.defenses)),
            "n_rates": float(len(self.rates)),
            "n_configs": float(
                len(self.results_per_cell[0]) if self.results_per_cell else 0
            ),
            "probe_retries": float(self.probe_retries),
            "structural_leakage_bits": self.structural_leakage_bits,
            "baseline_model_accuracy": base.accuracies.get(
                "model", float("nan")
            ),
            "baseline_rtt_auc": base.rtt_auc,
            "baseline_detector_auc": base.detector_auc,
        }
        for name in self.defenses:
            cell = self.cell(name, clean)
            summary[f"model_accuracy[{name}]"] = cell.accuracies.get(
                "model", float("nan")
            )
            summary[f"rtt_auc[{name}]"] = cell.rtt_auc
            summary[f"effective_leakage_bits[{name}]"] = (
                cell.effective_leakage_bits
            )
            summary[f"detector_auc[{name}]"] = cell.detector_auc
            summary[f"benign_delay_seconds[{name}]"] = (
                cell.benign_delay_seconds
            )
        return summary


# ----------------------------------------------------------------------
# Cell metrics
# ----------------------------------------------------------------------
def _structural_leakage(harnesses: Sequence[ConfigHarness]) -> float:
    """Mean best-probe leakage at the target across the sampled worlds."""
    total = 0.0
    for harness in harnesses:
        config = harness.config
        leaks = leakage_map(
            config.policy,
            config.universe,
            config.delta,
            config.cache_size,
            config.window_steps,
            targets=(config.target_flow,),
        )
        total += leaks.get(config.target_flow, 0.0)
    return total / len(harnesses) if harnesses else 0.0


def _binary_capacity(accuracy: float) -> float:
    """Capacity of a binary symmetric channel with this accuracy.

    The best threshold turns the timing channel into one hit/miss bit
    flipped with probability ``1 - accuracy``; the usable fraction of
    the structural leakage is ``1 - H2(error)``.
    """
    error = min(max(1.0 - accuracy, 0.0), 1.0)
    if error <= 0.0 or error >= 1.0:
        return 1.0
    entropy = -(
        error * math.log2(error) + (1.0 - error) * math.log2(1.0 - error)
    )
    return max(0.0, 1.0 - entropy)


def _cell_network(
    config: NetworkConfiguration,
    defense_name: Optional[str],
    seed_parts: Sequence[int],
) -> Network:
    """A fresh defended replica keyed by a sequence seed."""
    defense = make_defense(defense_name) if defense_name is not None else None
    return Network(
        config.concrete_rules,
        config.universe,
        cache_size=config.cache_size,
        rng=np.random.default_rng(list(seed_parts)),
        defense=defense,
    )


def _sample_rtt_populations(
    harnesses: Sequence[ConfigHarness],
    defense_name: Optional[str],
    seed_parts: Sequence[int],
) -> Tuple[List[float], List[float]]:
    """Hit/miss RTT populations under this defense.

    Each sample pair runs on a fresh replica (per-burst defense budgets
    reset): a cold probe of the target takes the setup path (miss), an
    immediate second probe rides the cached rule (hit).
    """
    hit_rtts: List[float] = []
    miss_rtts: List[float] = []
    for config_index, harness in enumerate(harnesses):
        config = harness.config
        flow = config.universe.flows[config.target_flow]
        for sample in range(RTT_SAMPLES_PER_CONFIG):
            network = _cell_network(
                config,
                defense_name,
                list(seed_parts) + [config_index, sample],
            )
            prober = Prober(network)
            first = prober.measure(flow)
            second = prober.measure(flow)
            if first.observed:
                miss_rtts.append(first.rtt)
            if second.observed:
                hit_rtts.append(second.rtt)
    return hit_rtts, miss_rtts


def _rtt_roc(
    hit_rtts: Sequence[float], miss_rtts: Sequence[float]
) -> Tuple[float, List[ThresholdPoint], float]:
    """Rank AUC, threshold sweep, and best accuracy for the samples."""
    rtt_auc = score_auc(miss_rtts, hit_rtts)
    if not hit_rtts or not miss_rtts:
        return rtt_auc, [], 0.5
    low = min(min(hit_rtts), min(miss_rtts))
    high = max(max(hit_rtts), max(miss_rtts))
    if low <= 0 or high <= low:
        return rtt_auc, [], 0.5
    ratio = (high / low) ** (1.0 / (ROC_CANDIDATES - 1))
    thresholds = [low * ratio**i for i in range(ROC_CANDIDATES)]
    points = roc_points(hit_rtts, miss_rtts, thresholds)
    best = max(point.accuracy for point in points)
    return rtt_auc, points, best


def _stream_windows(
    config: NetworkConfiguration,
    defense_name: Optional[str],
    seed_parts: Sequence[int],
    probing: bool,
) -> Tuple[List[CounterWindow], float]:
    """One counter-window stream: background traffic, plus probes.

    Runs on a private obs backend so the switch/controller counters the
    :class:`WindowRecorder` reads belong to this stream alone.  The
    attack stream cycles its probes across the whole flow universe --
    with a cache smaller than the universe this thrashes the flow
    table, the probing pattern that actually works against an idle-
    timeout cache (and the one a detector must catch).  Returns the
    windows and the defense's added benign+probe delay for the stream.
    """
    window_obs = Instrumentation()
    with use_instrumentation(window_obs):
        defense = (
            make_defense(defense_name) if defense_name is not None else None
        )
        rng_schedule = np.random.default_rng(list(seed_parts) + [0])
        network = Network(
            config.concrete_rules,
            config.universe,
            cache_size=config.cache_size,
            rng=np.random.default_rng(list(seed_parts) + [1]),
            defense=defense,
        )
        horizon = DETECTOR_WINDOWS * DETECTOR_WINDOW_SECONDS
        schedule = sample_schedule(
            config.universe, horizon=horizon, rng=rng_schedule
        )
        network.schedule_arrivals(schedule)
        recorder = WindowRecorder(window_obs)
        prober = Prober(network) if probing else None
        n_flows = len(config.universe.flows)
        probe_cursor = 0
        windows: List[CounterWindow] = []
        for index in range(DETECTOR_WINDOWS):
            start = index * DETECTOR_WINDOW_SECONDS
            if prober is not None:
                step = DETECTOR_WINDOW_SECONDS / DETECTOR_PROBES_PER_WINDOW
                for probe in range(DETECTOR_PROBES_PER_WINDOW):
                    at = start + (probe + 0.5) * step
                    if network.sim.now < at:
                        network.sim.run_until(at)
                    flow = config.universe.flows[probe_cursor % n_flows]
                    probe_cursor += 1
                    prober.measure(flow)
            network.sim.run_until(start + DETECTOR_WINDOW_SECONDS)
            windows.append(recorder.cut(DETECTOR_WINDOW_SECONDS))
    added = float(getattr(defense, "delays_added", 0.0)) if defense else 0.0
    return windows, added


def _detector_metrics(
    config: NetworkConfiguration,
    defense_name: Optional[str],
    detector_method: str,
    seed_parts: Sequence[int],
    detector_seed: int,
) -> Tuple[float, float]:
    """Detector AUC and alert rate for this cell's defense.

    The detector is calibrated on the very windows it scores -- a
    deliberate supervised upper bound: if even a fully informed
    detector cannot separate the streams (AUC ~0.5), the defense has
    closed the control-channel signature, not just beaten one training
    split.
    """
    benign, _ = _stream_windows(
        config, defense_name, list(seed_parts) + [0], probing=False
    )
    attack, _ = _stream_windows(
        config, defense_name, list(seed_parts) + [1], probing=True
    )
    detector = ReconDetector(method=detector_method, seed=detector_seed)
    detector.fit(benign, attack)
    benign_scores = detector.scores(benign)
    attack_scores = detector.scores(attack)
    alert_rate = sum(
        1 for score in attack_scores if score > detector.ALERT_THRESHOLD
    ) / len(attack_scores)
    return score_auc(attack_scores, benign_scores), alert_rate


def _benign_cost(
    harnesses: Sequence[ConfigHarness],
    defense_name: Optional[str],
    seed_parts: Sequence[int],
) -> Tuple[float, int, float, int]:
    """Defense cost on probe-free background traffic.

    A dedicated simulation (rather than reading the trial loop's
    defenses) for two reasons: trial defenses live in worker processes
    under ``--trial-jobs``, and trial traffic includes the attacker's
    probes -- neither is the benign cost the paper talks about.
    """
    total_delay = 0.0
    total_delayed = 0
    total_rules = 0
    total_packets = 0
    for config_index, harness in enumerate(harnesses):
        config = harness.config
        network = _cell_network(
            config, defense_name, list(seed_parts) + [config_index]
        )
        schedule = sample_schedule(
            config.universe,
            horizon=config.window_seconds,
            rng=np.random.default_rng(
                list(seed_parts) + [config_index, 1]
            ),
        )
        network.schedule_arrivals(schedule)
        network.sim.run_until(config.window_seconds)
        defense = network.defense
        total_delay += float(getattr(defense, "delays_added", 0.0) or 0.0)
        total_delayed += int(getattr(defense, "packets_delayed", 0) or 0)
        total_rules += int(getattr(defense, "rules_installed", 0) or 0)
        total_packets += len(schedule)
    per_packet = total_delay / total_packets if total_packets else 0.0
    return total_delay, total_delayed, per_packet, total_rules


# ----------------------------------------------------------------------
# The sweep
# ----------------------------------------------------------------------
def run_defend(spec: "JobSpec") -> DefendResult:
    """Run the countermeasure x attacker x fault-plan grid ``spec`` describes.

    ``spec`` is a :class:`~repro.apispec.JobSpec`; anything else raises
    ``TypeError``.  Its ``defense``/``detector`` fields (or the full
    registry and the logistic detector) and its ``rates``/``kinds``
    (:func:`~repro.experiments.robustness.sweep_axes`) supply the grid.
    Network-mode trials are required: a defense only exists at a
    simulated switch.  The screened configurations are sampled once and
    every cell -- including the undefended baseline -- re-trials
    exactly the same worlds.
    """
    from repro.apispec import require_spec

    spec, params = require_spec(spec, caller="run_defend")
    if params.trial_mode != "network":
        raise ValueError(
            "the defend grid requires network-mode trials "
            f"(got trial_mode={params.trial_mode!r}); pass --mode network"
        )
    defenses = spec.defense or DEFAULT_DEFENSES
    detector_method = spec.detector or "logistic"
    params, rates, kinds, base_plan = sweep_axes(spec, params, DEFAULT_RATES)
    base_seed = params.seed if params.seed is not None else 0

    outer = get_instrumentation()
    with outer.span(
        "experiment.defend",
        defenses=",".join(defenses),
        rates=len(rates),
        detector=detector_method,
    ):
        harnesses = sample_screened_harnesses(
            params, params.n_configs, max_attempts_factor=MAX_ATTEMPTS_FACTOR
        )
        fallbacks = harnesses.pool_fallbacks
        generators = shared_generators(harnesses)
        states = snapshot_states(generators)
        structural = _structural_leakage(harnesses)
        detector_config = harnesses[0].config

        def run_cell(
            defense_name: Optional[str],
            label: str,
            rate: float,
        ) -> Tuple[DefendCell, List[ConfigResult]]:
            plan = base_plan.with_rate(kinds, rate)
            factory: Optional[Callable[[], object]] = None
            if defense_name is not None:
                factory = lambda: make_defense(defense_name)  # noqa: E731
            inner = Instrumentation()
            with outer.span(
                "experiment.defend.cell", defense=label, rate=rate
            ):
                restore_states(generators, states)
                with use_instrumentation(inner):
                    bucket = [
                        harness.run_trials(
                            defense_factory=factory,
                            fault_plan=plan,
                            probe_retries=params.probe_retries,
                        )
                        for harness in harnesses
                    ]
                    # The auxiliary stages are keyed by (seed, stage)
                    # alone -- every cell, the baseline included, faces
                    # the same replica worlds, so cells differ only in
                    # the attached defense.  (These stages attach no
                    # fault injector; the fault rate axis acts on the
                    # trial loop above.)
                    hit_rtts, miss_rtts = _sample_rtt_populations(
                        harnesses, defense_name, [base_seed, 11]
                    )
                    rtt_auc, roc, best = _rtt_roc(hit_rtts, miss_rtts)
                    detector_auc, alert_rate = _detector_metrics(
                        detector_config,
                        defense_name,
                        detector_method,
                        [base_seed, 13],
                        detector_seed=base_seed,
                    )
                    delay, delayed, per_packet, rules = _benign_cost(
                        harnesses, defense_name, [base_seed, 17]
                    )
            counters = forward_counters(inner, outer, _CELL_COUNTERS)
            accuracies: Dict[str, float] = {}
            names = sorted(
                {name for result in bucket for name in result.accuracies}
            )
            for name in names:
                values = [
                    r.accuracies[name]
                    for r in bucket
                    if name in r.accuracies
                ]
                accuracies[name] = sum(values) / len(values)
            cell = DefendCell(
                defense=label,
                rate=rate,
                accuracies=accuracies,
                rtt_auc=rtt_auc,
                roc=roc,
                best_accuracy=best,
                effective_leakage_bits=structural
                * _binary_capacity(best),
                detector_auc=detector_auc,
                detector_alert_rate=alert_rate,
                benign_delay_seconds=delay,
                benign_packets_delayed=delayed,
                benign_delay_per_packet=per_packet,
                rules_installed=rules,
                counters=counters,
            )
            return cell, bucket

        baseline_cells: List[DefendCell] = []
        baseline_results: List[List[ConfigResult]] = []
        for rate in rates:
            cell, bucket = run_cell(None, BASELINE, rate)
            baseline_cells.append(cell)
            baseline_results.append(bucket)

        cells: List[DefendCell] = []
        results_per_cell: List[List[ConfigResult]] = []
        for defense_name in defenses:
            for rate in rates:
                cell, bucket = run_cell(defense_name, defense_name, rate)
                cells.append(cell)
                results_per_cell.append(bucket)
        fallbacks += sum(
            result.pool_fallbacks
            for bucket in baseline_results + results_per_cell
            for result in bucket
        )

    return DefendResult(
        defenses=defenses,
        rates=rates,
        kinds=kinds,
        detector_method=detector_method,
        probe_retries=params.probe_retries,
        structural_leakage_bits=structural,
        cells=cells,
        baseline=baseline_cells,
        results_per_cell=results_per_cell,
        baseline_results=baseline_results,
        pool_fallbacks=fallbacks,
    )
