"""Persistent session pool for the reconnaissance service.

Unlike the per-call pools of :mod:`repro.experiments.parallel` (built
and torn down inside one ``run_trials`` call), the service keeps one
:class:`~repro.parallel.ForkPool` alive across jobs and ships each
session to it as a single item: the picklable trial context plus its
pre-drawn plans.  The payload runs
:func:`~repro.experiments.parallel.run_planned_trial` over each plan,
so a pooled session returns bit-identical ``TrialResult`` lists to
running the same plans serially.

Failure discipline is the primitive's: any exception escaping the pool
(executor start failure, a worker exception, a worker killed mid-batch)
permanently retires the pool for this service instance, bumps
``service.pool.fallbacks``, and every session from then on runs
serially in the parent -- same plans, same results, no retry storms
against a dead pool.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.experiments.parallel import TrialContext, TrialPlan, run_planned_trial
from repro.experiments.trials import TrialResult
from repro.parallel import ForkPool

#: One session: its trial context and its pre-drawn plans.
SessionTask = Tuple[TrialContext, Sequence[TrialPlan]]


def _run_session(_shared: None, task: SessionTask) -> List[TrialResult]:
    """Run one whole session's trials (in a worker or the parent)."""
    context, plans = task
    return [run_planned_trial(context, plan) for plan in plans]


class SessionPool:
    """The service's persistent fork pool, one item per session.

    ``shards`` is the worker count; ``shards <= 1`` (or a platform
    without the fork start method) never creates a pool at all.  The
    pool is built lazily on first use, so a service that only ever runs
    serial jobs costs nothing.
    """

    def __init__(self, shards: int = 1) -> None:
        self.shards = max(1, int(shards))
        self._pool = ForkPool(self.shards, name="service")

    @property
    def pooled(self) -> bool:
        """Whether sessions currently go through a live pool."""
        return self._pool.pooled

    def run_sessions(
        self, tasks: Sequence[SessionTask]
    ) -> List[List[TrialResult]]:
        """Run several sessions' trials, one pool item per session.

        Returns per-session ``TrialResult`` lists in task order.  On
        any pool failure the *whole batch* re-runs serially (trials are
        pure functions of their plans) and the pool is retired.
        """
        return self._pool.map(
            _run_session, [(context, tuple(plans)) for context, plans in tasks]
        )

    def close(self) -> None:
        """Shut the pool down cleanly (idempotent)."""
        self._pool.close()


__all__ = ["SessionPool", "SessionTask"]
