"""Session planning for the reconnaissance service.

A *session* is one target flow reconnoitred against one shared scenario
(the sampled network configuration of a ``recon`` job): probe
selection, then ``n_trials`` Monte Carlo trials.  Sessions reuse the
planned-trial determinism discipline end to end:

* every session is a :class:`~repro.experiments.harness.ConfigHarness`
  on its own seeded generator ``default_rng([job_seed,
  session_index])`` -- independent of execution order and of the
  process it runs in, so a resumed or sharded service plans the exact
  same sessions;
* the per-trial randomness (seed integer + probeless verdicts) is
  pre-drawn by :func:`~repro.experiments.parallel.plan_trials`, in
  exactly the serial draw order of ``ConfigHarness.run_trials``;
* the probing attackers decide inside each trial from its outcome bits,
  exactly as in the harness.

The service runs a whole session -- :func:`plan_session`, the trials
and :func:`session_row` -- as one item of its
:class:`~repro.service.pool.SessionPool`, in a worker or in the parent.
The one expensive per-scenario object -- the
:class:`~repro.core.compact_model.CompactModel` with its shared
transition-power caches -- is memoised per process by the pool and
passed in; per-session work is the target-excluded evolution plus the
trials, which is where the service's sessions/sec advantage over
serially looping full harnesses comes from (BENCH_service.json).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.apispec import JobSpec
from repro.core.attacker import Attacker
from repro.core.compact_model import CompactModel
from repro.experiments.harness import ConfigHarness
from repro.experiments.parallel import TrialPlan, plan_trials
from repro.experiments.trials import TrialResult
from repro.flows.config import NetworkConfiguration

#: Attacker lineup evaluated in every service session.  The constrained
#: (Figure 7) attacker is a batch-experiment concern; recon sessions
#: compare the model attacker against the naive and random baselines.
SESSION_ATTACKERS: Tuple[str, ...] = ("naive", "model", "random")


def session_rng(seed: int, index: int) -> np.random.Generator:
    """The session's own generator: ``default_rng([seed, index])``.

    Keyed by (job seed, session index), not by execution order, so
    skipping already-checkpointed sessions on resume cannot shift the
    randomness of the remaining ones.
    """
    return np.random.default_rng([int(seed), int(index)])


def session_lineup(harness: ConfigHarness) -> Tuple[Attacker, ...]:
    """The harness's attackers named by :data:`SESSION_ATTACKERS`, in order."""
    return (harness.naive_attacker, harness.model_attacker, harness.random_attacker)


def plan_session(
    model: CompactModel,
    scenario: NetworkConfiguration,
    spec: JobSpec,
    index: int,
    target_flow: int,
) -> Tuple[ConfigHarness, Tuple[TrialPlan, ...]]:
    """Plan one session (the service's only generator-constructing path).

    Builds a :class:`~repro.experiments.harness.ConfigHarness` on the
    scenario retargeted at ``target_flow``, holding the session's
    generator and the shared ``model``, and pre-draws the trials of
    :func:`session_lineup` from that generator.
    """
    if spec.seed is None:
        raise ValueError("service jobs require an explicit seed")
    harness = ConfigHarness(
        replace(scenario, target_flow=int(target_flow)),
        spec.to_params(),
        rng=session_rng(spec.seed, index),
        model=model,
    )
    trials = plan_trials(harness.rng, session_lineup(harness), spec.n_trials)
    return harness, tuple(trials)


def eligible_targets(scenario: NetworkConfiguration, spec: JobSpec) -> Tuple[int, ...]:
    """The job's target flow set.

    Explicit ``spec.targets`` win (validated against the universe);
    otherwise the first ``spec.n_targets`` flows covered by at least
    one policy rule, in ascending flow order -- deterministic, so a
    resumed job enumerates the identical set.
    """
    n_flows = len(scenario.universe)
    if spec.targets is not None:
        bad = [t for t in spec.targets if t >= n_flows]
        if bad:
            raise ValueError(
                f"target flow(s) outside the universe of {n_flows}: {bad}"
            )
        return spec.targets
    covered = [
        index
        for index in range(n_flows)
        if scenario.policy.covering(index)
    ]
    if not covered:
        raise ValueError("scenario has no policy-covered flows to target")
    return tuple(covered[: spec.n_targets])


def session_row(
    index: int, harness: ConfigHarness, results: Sequence[TrialResult]
) -> Dict[str, object]:
    """The session's checkpoint row (plain JSON, fully deterministic)."""
    n_trials = len(results)
    correct = {name: 0 for name in SESSION_ATTACKERS}
    for trial in results:
        for name in SESSION_ATTACKERS:
            if trial.correct(name):
                correct[name] += 1
    return {
        "session": int(index),
        "target_flow": harness.config.target_flow,
        "prior_absent": harness.inference.prior_absent(),
        "probes": list(harness.model_attacker.probes),
        "trials": n_trials,
        "accuracies": {
            name: correct[name] / n_trials for name in SESSION_ATTACKERS
        },
    }
