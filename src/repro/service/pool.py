"""Persistent session pool for the reconnaissance service.

Unlike the per-call pools of :mod:`repro.experiments.parallel` (built
and torn down inside one ``run_trials`` call), the service keeps one
:class:`~repro.parallel.ForkPool` alive across jobs and ships each
session to it as a single item: the scenario key, the scenario, the
spec, the session index and the target flow.  The payload plans the
session (:func:`~repro.service.sessions.plan_session`), runs its trials
with the real attacker lineup through
:func:`~repro.experiments.parallel.run_planned_trial` and returns the
session's checkpoint row.  Every input of a session is a pure function
of ``(spec, index, target)``, so a pooled session returns the row the
parent would have computed.

The expensive per-scenario object, the
:class:`~repro.core.compact_model.CompactModel`, is memoised per
process in :attr:`SessionPool.models` (the pool's ``shared``): workers
inherit the parent's dict at fork and then fill their own copy, so a
scenario first served after the fork is built once per worker that
runs one of its sessions.  On the serial path, and for a batch of one
session (which runs in the parent, like any one-item map), the parent's
copy fills.  Each process keeps at most :data:`MAX_SCENARIO_MODELS`
models and evicts the least recently used scenario; an evicted
scenario's next session rebuilds the same model (the build is a pure
function of the scenario).

Failure discipline is the primitive's: any exception escaping the pool
(executor start failure, a worker exception, a worker killed mid-batch)
permanently retires the pool for this service instance, bumps
``service.pool.fallbacks``, and every session from then on runs
serially in the parent -- same inputs, same rows, no retry storms
against a dead pool.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.apispec import JobSpec
from repro.core.compact_model import CompactModel
from repro.experiments.parallel import TrialContext, run_planned_trial
from repro.flows.config import NetworkConfiguration
from repro.memo import BoundedMemo
from repro.obs import get_instrumentation
from repro.parallel import ForkPool
from repro.service import sessions

#: One session: scenario key, scenario, spec, session index, target flow.
SessionTask = Tuple[str, NetworkConfiguration, JobSpec, int, int]

#: Compact models each process keeps (LRU by scenario key).  Well above
#: the handful of scenarios a service typically alternates between.
MAX_SCENARIO_MODELS = 8


def _run_session(
    models: BoundedMemo[str, CompactModel], task: SessionTask
) -> Dict[str, object]:
    """Plan, run and score one session (in a worker or the parent)."""
    key, scenario, spec, index, target = task
    obs = get_instrumentation()
    model = models.get(key)
    if model is None:
        with obs.span("service.model_build", job=spec.job_id or ""):
            model = CompactModel(
                scenario.policy,
                scenario.universe,
                scenario.delta,
                scenario.cache_size,
            )
        models[key] = model
    with obs.span(
        "service.session.plan", job=spec.job_id or "", session=index, target=target
    ):
        # Looked up on the module, so a wrapped ``plan_session`` (a
        # tracer's) is the one called.
        runtime = sessions.plan_session(model, scenario, spec, index, target)
    context = TrialContext(
        config=runtime.config,
        lineup=runtime.lineup,
        mode=spec.trial_mode,
        defense_factory=None,
        fault_plan=spec.fault_plan,
        probe_retries=spec.probe_retries,
    )
    results = [run_planned_trial(context, plan) for plan in runtime.trials]
    return sessions.session_row(runtime, results)


class SessionPool:
    """The service's persistent fork pool, one item per session.

    ``shards`` is the worker count; ``shards <= 1`` (or a platform
    without the fork start method) never creates a pool at all.  The
    pool is built lazily on first use, so a service that only ever runs
    serial jobs costs nothing.
    """

    def __init__(self, shards: int = 1) -> None:
        self.shards = max(1, int(shards))
        #: Scenario key -> compact model, memoised per process.
        self.models: BoundedMemo[str, CompactModel] = BoundedMemo(
            MAX_SCENARIO_MODELS
        )
        self._pool = ForkPool(self.shards, self.models, name="service")

    @property
    def pooled(self) -> bool:
        """Whether sessions currently go through a live pool."""
        return self._pool.pooled

    def run_sessions(
        self, tasks: Sequence[SessionTask]
    ) -> List[Dict[str, object]]:
        """Run several whole sessions, one pool item per session.

        Returns the sessions' checkpoint rows in task order.  On any
        pool failure the *whole batch* re-runs serially (sessions are
        pure functions of their tasks) and the pool is retired.
        """
        return self._pool.map(_run_session, tasks)

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent)."""
        self._pool.close()


__all__ = ["MAX_SCENARIO_MODELS", "SessionPool", "SessionTask"]
