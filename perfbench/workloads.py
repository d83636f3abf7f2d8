"""The three benchmark workloads: ``screen``, ``netsim`` and ``serve``.

Each workload drives only the program's public entry points with default
settings.  A workload is set up once (``setup``), then measured in
*passes* (``measure``).  A pass replays *rounds*: a round runs the first
``round_ops`` operations of a sequence that is fully determined by the
workload seed, so every round repeats the same operations on the same
inputs.  A pass is bounded by a deadline, an operation count, or both;
the deadline may cut its last round short.  Every operation yields a
*token*, a string that pins its result, on one of the round's input
streams, so two rounds or two passes over the same seed can be compared
token by token on each stream.

Module import is side-effect free: the workload classes do nothing until
``setup`` is called.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apispec import JobSpec
from repro.experiments import trials
from repro.experiments.harness import ConfigHarness, sample_screened_harnesses
from repro.experiments.params import VIABLE_FIG6_BINS, ExperimentParams
from repro.flows.config import ConfigGenerator, ConfigParams, NetworkConfiguration
from repro.service import ReconService
from repro.service.sessions import SESSION_ATTACKERS, eligible_targets


class StopPass(Exception):
    """Raised at an operation boundary when the round's budget is spent."""


@dataclass
class Budget:
    """When a pass stops: at a deadline, after a number of operations, or both."""

    deadline: Optional[float] = None
    max_ops: Optional[int] = None

    def spent(self, ops_done: int) -> bool:
        if self.max_ops is not None and ops_done >= self.max_ops:
            return True
        return self.deadline is not None and time.perf_counter() >= self.deadline


#: Called with the index of the operation about to start, so a tracer can
#: tag the spans of that operation.
OpHook = Callable[[int], None]


def _noop_hook(index: int) -> None:
    pass


#: What the calibration loop takes on the reference host; latencies are
#: rescaled to that speed.
REFERENCE_CALIBRATION_S = 0.004


def calibration_loop() -> None:
    """Fixed interpreter and numpy work, timed between ops.

    Other tenants of the host slow the program and this loop alike, so
    the ratio of an op's latency to the loop's time beside it does not
    move with them.
    """
    total = 0
    table = {}
    for index in range(24000):
        total += index * index % 7
        table[index & 1023] = total
    values = np.arange(8192.0)
    for _ in range(24):
        values = np.sqrt(values * values + 1.0)


def time_calibration() -> float:
    started = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - started


@dataclass
class Round:
    """What one round measured: op latencies in op order, and the tokens.

    Workloads time each op with ``begin`` and ``end``.  With ``calibrate``
    the calibration loop is timed before every op and after the last
    one, outside the op's latency.
    """

    hook: OpHook = _noop_hook
    calibrate: bool = False
    latencies_s: List[float] = field(default_factory=list)
    #: Calibration times; entry ``i`` was taken just before op ``i``.
    calibration_s: List[float] = field(default_factory=list)
    #: Output tokens per input stream; each stream is a pure function of
    #: the seed, so any two rounds agree on the tokens both produced.
    streams: Dict[str, list] = field(default_factory=dict)
    failed: int = 0
    started: Optional[float] = None

    @property
    def ops(self) -> int:
        return len(self.latencies_s)

    def begin(self) -> None:
        self.hook(self.ops)
        if self.calibrate:
            self.calibration_s.append(time_calibration())
        self.started = time.perf_counter()

    def end(self) -> None:
        """End the op in progress, if there is one."""
        if self.started is not None:
            self.latencies_s.append(time.perf_counter() - self.started)
            self.started = None

    def close(self) -> None:
        self.end()
        if self.calibrate and self.ops:
            self.calibration_s.append(time_calibration())

    def scaled_s(self) -> List[float]:
        """Latencies at the reference speed, from the calibrations beside each op."""
        if not self.calibrate:
            return list(self.latencies_s)
        return [
            seconds * 2.0 * REFERENCE_CALIBRATION_S
            / (self.calibration_s[index] + self.calibration_s[index + 1])
            for index, seconds in enumerate(self.latencies_s)
        ]

    def add(self, stream: str, token) -> None:
        self.streams.setdefault(stream, []).append(token)


@dataclass
class Pass:
    """What one pass measured, round by round."""

    #: Per round, the op latencies at the reference speed (wall clock
    #: when the pass is not calibrated).
    rounds: List[List[float]] = field(default_factory=list)
    #: Per round, the wall-clock op latencies.
    wall_rounds: List[List[float]] = field(default_factory=list)
    calibration_s: List[float] = field(default_factory=list)
    #: The first round's tokens; later rounds are checked against them.
    streams: Dict[str, list] = field(default_factory=dict)
    wall_s: float = 0.0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return sum(len(latencies) for latencies in self.rounds)

    @staticmethod
    def _per_op(rounds: List[List[float]]) -> List[float]:
        by_op: List[List[float]] = []
        for latencies in rounds:
            for index, seconds in enumerate(latencies):
                if index == len(by_op):
                    by_op.append([])
                by_op[index].append(seconds)
        return [statistics.median(samples) for samples in by_op]

    @property
    def per_op_s(self) -> List[float]:
        """Each distinct op's median latency over the rounds that ran it.

        The same op on the same inputs does the same work in every round,
        so the median sets aside a round that a collection or an
        interrupt slowed.
        """
        return self._per_op(self.rounds)

    @property
    def wall_per_op_s(self) -> List[float]:
        return self._per_op(self.wall_rounds)

    def add_round(self, round_: Round) -> None:
        self.rounds.append(round_.scaled_s())
        self.wall_rounds.append(round_.latencies_s)
        self.calibration_s += round_.calibration_s
        self.failed += round_.failed
        if len(self.rounds) == 1:
            self.streams = round_.streams
            return
        for stream, tokens in round_.streams.items():
            first = self.streams.get(stream, [])
            differing = sum(a != b for a, b in zip(tokens, first))
            if differing:
                self.failed += differing
                self.notes.append(
                    f"round {len(self.rounds)} differs from round 1 on "
                    f"{differing} {stream} tokens"
                )


def config_token(config: NetworkConfiguration) -> str:
    """A canonical description of a sampled configuration."""
    rates = tuple(float(rate) for rate in config.universe.rates)
    return f"{config.describe()}|{rates!r}"


def _accuracies_token(accuracies: dict) -> str:
    return json.dumps(accuracies, sort_keys=True)


def measure(
    workload, budget: Budget, hook: OpHook = _noop_hook, calibrate: bool = False
) -> Pass:
    """Rounds of ``workload`` until ``budget`` is spent.

    ``hook`` sees op indices counted across the whole pass, so a tracer
    gives every op of the pass its own id.
    """
    result = Pass()
    start = time.perf_counter()
    while not budget.spent(result.ops):
        done = result.ops
        n_ops = workload.round_ops
        if budget.max_ops is not None:
            n_ops = min(n_ops, budget.max_ops - done)
        round_ = Round(hook=lambda index: hook(done + index), calibrate=calibrate)
        workload.run_round(Budget(deadline=budget.deadline, max_ops=n_ops), round_)
        round_.close()
        if round_.ops == 0:
            break
        result.add_round(round_)
    result.wall_s = time.perf_counter() - start
    return result


def _row_token(row: dict) -> dict:
    """A session row with its one model-derived float rounded.

    Accuracies are exact ratios; the prior is a float sum whose last bits
    may differ between CPUs with different vector units.
    """
    return {**row, "prior_absent": round(row["prior_absent"], 12)}


# ----------------------------------------------------------------------
# screen: Figure 6 screened sampling
# ----------------------------------------------------------------------
class ScreenWorkload:
    """Figure 6 screened sampling over ``VIABLE_FIG6_BINS``.

    One operation is one sampled candidate.  A round splits its ops
    evenly between the two absence bins; within a bin it calls
    ``sample_screened_harnesses(..., require_optimal_differs=True)`` for
    one configuration at a time from one generator seeded afresh each
    round, and every accepted harness runs a short table-mode
    ``run_trials``.  Candidate latency is the interval between consecutive
    ``ConfigGenerator.sample`` calls, seen through a wrapper that only
    counts (and stops the round at a candidate boundary once its budget
    is spent).

    The candidate streams are pinned (``stream_seed``): what a candidate
    costs depends mostly on which configuration it is, so a few dozen
    seed-drawn candidates would make the seed, not the program, set the
    timings.  The workload seed draws the trials of every accepted
    configuration.
    """

    name = "screen"
    #: Trials per accepted configuration.
    trials = 10
    #: Candidates per round, half in each bin.
    round_ops = 16
    #: Operations per second of ``--seconds`` in a count-bounded pass.
    nominal_ops_per_s = 4
    #: Seeds of the pinned candidate streams and of the warm-up streams.
    stream_seed = 2017
    warmup_seed = 7

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.bin_params = [
            ExperimentParams(seed=seed, n_trials=self.trials, trial_mode="table")
            .with_absence_range(low, high)
            for low, high in VIABLE_FIG6_BINS
        ]
        self.accepted: List[Tuple[int, NetworkConfiguration]] = []
        # Warm-up on pinned streams, so lazy imports and first-call costs
        # are paid here, at a cost that does not depend on the seed.
        self.run_round(Budget(max_ops=4), Round(), stream_seed=self.warmup_seed)
        self.accepted = []

    def run_round(
        self, budget: Budget, result: Round, stream_seed: Optional[int] = None
    ) -> None:
        if stream_seed is None:
            stream_seed = self.stream_seed
        original = ConfigGenerator.sample
        # The candidates started in the current bin, and that bin's budget.
        current = {"started": 0, "budget": budget, "stream": ""}

        def counting_sample(generator, *args, **kwargs):
            result.end()
            if current["budget"].spent(current["started"]):
                raise StopPass
            result.begin()
            current["started"] += 1
            config = original(generator, *args, **kwargs)
            result.add(current["stream"], config)
            return config

        ConfigGenerator.sample = counting_sample  # type: ignore[method-assign]
        try:
            for index, params in enumerate(self.bin_params):
                current["started"] = 0
                current["stream"] = f"bin{index}"
                current["budget"] = _split_budget(budget, index, len(self.bin_params))
                generator = ConfigGenerator(params.config, seed=stream_seed * 10 + index)
                for accepted in itertools.count():
                    try:
                        harnesses = sample_screened_harnesses(
                            params,
                            1,
                            require_optimal_differs=True,
                            max_attempts_factor=10**9,
                            generator=generator,
                        )
                        harnesses[0].rng = np.random.default_rng([self.seed, index, accepted])
                        config_result = harnesses[0].run_trials()
                    except StopPass:
                        break
                    except Exception as exc:  # counted, reported, not fatal
                        result.end()
                        result.failed += 1
                        result.add(f"bin{index}", f"error:{type(exc).__name__}:{exc}")
                        break
                    self.accepted.append((index, harnesses[0].config))
                    result.add(
                        f"bin{index}", "a:" + _accuracies_token(config_result.accuracies)
                    )
        finally:
            ConfigGenerator.sample = original  # type: ignore[method-assign]
        result.streams = {
            stream: [
                token if isinstance(token, str) else "c:" + config_token(token)
                for token in tokens
            ]
            for stream, tokens in result.streams.items()
        }
        return result

    def check(self) -> Tuple[int, List[str]]:
        """Re-confirm every accepted configuration on a fresh exact harness.

        Rounds accept the same configurations, so each is checked once.
        """
        failures, notes = 0, []
        unique = {config_token(config): (index, config) for index, config in self.accepted}
        for index, config in unique.values():
            harness = ConfigHarness(config, self.bin_params[index])
            if not (harness.is_screened_in() and harness.optimal_differs_from_target()):
                failures += 1
                notes.append(f"accepted config fails the exact screen: {config.describe()}")
        return failures, notes


def _split_budget(budget: Budget, index: int, parts: int) -> Budget:
    """Part ``index`` of ``parts``: an even share of the ops, the same deadline."""
    max_ops = budget.max_ops // parts + (1 if index < budget.max_ops % parts else 0)
    return Budget(deadline=budget.deadline, max_ops=max_ops)


# ----------------------------------------------------------------------
# netsim: packet-level network-mode trials
# ----------------------------------------------------------------------
class NetsimWorkload:
    """Network-mode trials on pinned configurations with a larger cache.

    The harnesses (models, probe selections) are built during setup; one
    operation is one ``run_trial`` call in ``network`` mode, cycling over
    the configurations with trial seeds drawn from the workload seed.
    The random-guess attacker is left out of the lineup because it draws
    from the harness generator, which would make a replayed round differ.
    """

    name = "netsim"
    config = ConfigParams(n_rules=14, cache_size=12)
    #: Pinned configuration seeds (a subset of the simulator proxy's).
    config_seeds = (23, 151, 389)
    round_ops = 60
    nominal_ops_per_s = 18

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.harnesses = []
        for config_seed in self.config_seeds:
            params = ExperimentParams(
                config=self.config, seed=config_seed, trial_mode="network"
            )
            harness = ConfigHarness.sample(params)
            harness.constrained_attacker  # selected now, not in the first trial
            self.harnesses.append(harness)
        self.lineups = [
            tuple(a for a in harness.attackers() if a.name != "random")
            for harness in self.harnesses
        ]
        harness = self.harnesses[0]
        trials.run_trial(harness.config, self.lineups[0], 0, mode="network")

    def run_round(self, budget: Budget, result: Round) -> None:
        rng = np.random.default_rng([self.seed, 1])
        while not budget.spent(result.ops):
            index = result.ops % len(self.harnesses)
            trial_seed = int(rng.integers(2**62))
            config = self.harnesses[index].config
            result.begin()
            try:
                trial = trials.run_trial(
                    config, self.lineups[index], trial_seed, mode="network"
                )
                token = json.dumps(
                    [index, trial_seed, trial.ground_truth, trial.decisions,
                     trial.outcomes],
                    sort_keys=True,
                )
            except Exception as exc:  # counted, reported, not fatal
                result.failed += 1
                token = f"error:{type(exc).__name__}:{exc}"
            result.end()
            result.add("trials", token)

    def check(self) -> Tuple[int, List[str]]:
        return 0, []


# ----------------------------------------------------------------------
# serve: closed-loop recon jobs against the session service
# ----------------------------------------------------------------------
class ServeWorkload:
    """One client submitting small ``recon`` jobs and draining each.

    Jobs cycle over pinned scenarios.  The service is restarted, on an
    empty state directory, every ``jobs_per_service`` jobs: the first job
    of each service builds its scenario's model cold (and starts the fork
    pool), the rest reuse the model warm.  Restarting keeps the cold/warm
    mix at one in ``jobs_per_service`` and bounds the model cache.  Each
    job reconnoitres ``sessions_per_job`` targets not yet seen by that
    service, so every session computes its own target-excluded chain.
    The targets of each service's first (cold) job are pinned
    (``target_seed``), so the cold jobs measure the same model builds and
    sessions for every seed; the workload seed draws the warm jobs'
    targets from the rest.
    """

    name = "serve"
    scenario_seeds = (2017, 2018, 2019)
    #: One cold job in three keeps the median on warm jobs and the 75th
    #: percentile on cold ones, away from the boundary between them.
    jobs_per_service = 3
    sessions_per_job = 2
    shards = 2
    trials = 10
    #: One service per scenario: 3 cold jobs and 6 warm ones.
    round_ops = 9
    target_seed = 2017
    nominal_ops_per_s = 3

    def __init__(self, state_root: str) -> None:
        self.state_root = state_root
        self.services_started = 0

    def _spec(self, scenario_seed: int, targets: Optional[Tuple[int, ...]], job_id: str) -> JobSpec:
        return JobSpec(
            experiment="recon",
            seed=scenario_seed,
            n_trials=self.trials,
            trial_mode="table",
            shards=self.shards,
            targets=targets,
            n_targets=16,
            job_id=job_id,
        )

    def _fresh_state(self) -> str:
        self.services_started += 1
        path = os.path.join(self.state_root, f"service{self.services_started}")
        shutil.rmtree(path, ignore_errors=True)
        return path

    @staticmethod
    def _run_job(service: ReconService, spec: JobSpec) -> list:
        service.submit(spec)
        return asyncio.run(service.drain())[spec.job_id]["series"]["sessions"]

    def _target_order(self, n_targets: int, restart: int) -> List[int]:
        """Pinned targets for the cold job, then the seed's order of the rest."""
        pinned = np.random.default_rng([self.target_seed, restart]).permutation(n_targets)
        pinned = [int(i) for i in pinned[: self.sessions_per_job]]
        drawn = np.random.default_rng([self.seed, restart]).permutation(n_targets)
        return pinned + [int(i) for i in drawn if int(i) not in pinned]

    def setup(self, seed: int) -> None:
        self.seed = seed
        #: scenario seed -> (scenario, every policy-covered target flow)
        self.scenarios = {}
        for scenario_seed in self.scenario_seeds:
            spec = self._spec(scenario_seed, None, "targets")
            scenario = ConfigGenerator(spec.config, seed=scenario_seed).sample()
            self.scenarios[scenario_seed] = (scenario, eligible_targets(scenario, spec))
        self.jobs: List[Tuple[JobSpec, list]] = []
        self.pool_degraded = False
        # Warm-up: service and pool start-up on a throwaway service.
        scenario_seed = self.scenario_seeds[0]
        targets = self.scenarios[scenario_seed][1][: self.sessions_per_job]
        state = self._fresh_state()
        service = ReconService(state, shards=self.shards)
        try:
            self._run_job(service, self._spec(scenario_seed, targets, "warmup"))
        finally:
            service.close()
            shutil.rmtree(state, ignore_errors=True)

    def run_round(self, budget: Budget, result: Round) -> None:
        restart = 0
        while not budget.spent(result.ops):
            scenario_seed = self.scenario_seeds[restart % len(self.scenario_seeds)]
            covered = self.scenarios[scenario_seed][1]
            order = self._target_order(len(covered), restart)
            state = self._fresh_state()
            service = ReconService(state, shards=self.shards)
            try:
                for job in range(self.jobs_per_service):
                    if budget.spent(result.ops):
                        break
                    first = job * self.sessions_per_job
                    targets = tuple(
                        int(covered[order[(first + k) % len(order)]])
                        for k in range(self.sessions_per_job)
                    )
                    spec = self._spec(scenario_seed, targets, f"service{restart}-job{job}")
                    result.begin()
                    try:
                        rows = self._run_job(service, spec)
                        token = json.dumps([scenario_seed, [_row_token(r) for r in rows]])
                    except Exception as exc:  # counted, reported, not fatal
                        result.failed += 1
                        rows = []
                        token = f"error:{type(exc).__name__}:{exc}"
                    result.end()
                    result.add("jobs", token)
                    self.jobs.append((spec, rows))
                self.pool_degraded |= not service.pool.pooled
            finally:
                service.close()
                shutil.rmtree(state, ignore_errors=True)
            restart += 1

    def check(self) -> Tuple[int, List[str]]:
        """Pinned sessions must equal a serial ``ConfigHarness`` run.

        The pinned sessions are the first session of the first job of
        each of the first three services of the first round (one per
        scenario); later rounds are checked against the first by token.
        """
        failures, notes = 0, []
        oracle_jobs = range(0, len(self.scenario_seeds) * self.jobs_per_service, self.jobs_per_service)
        for job_index in oracle_jobs:
            if job_index >= len(self.jobs):
                break
            spec, rows = self.jobs[job_index]
            scenario = self.scenarios[spec.seed][0]
            row = rows[0] if rows else None
            harness = ConfigHarness(
                replace(scenario, target_flow=int(spec.targets[0])),
                spec.to_params(),
                rng=np.random.default_rng([spec.seed, 0]),
            )
            expected = harness.run_trials().accuracies
            expected = {name: expected[name] for name in SESSION_ATTACKERS}
            if row is None or row["accuracies"] != expected:
                failures += 1
                notes.append(f"job {spec.job_id} session 0 differs from the serial oracle")
        return failures, notes


def make_workload(name: str, state_root: str):
    """The named workload; ``state_root`` is an empty directory it may use."""
    if name == "screen":
        return ScreenWorkload()
    if name == "netsim":
        return NetsimWorkload()
    if name == "serve":
        return ServeWorkload(state_root)
    raise ValueError(f"unknown workload: {name!r}")
