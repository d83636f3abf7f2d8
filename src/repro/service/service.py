"""The reconnaissance session service.

:class:`ReconService` is an asyncio job front-end over the repo's
experiment machinery.  Jobs arrive as the unified
:class:`~repro.apispec.JobSpec` -- the same object the CLI builds --
and fall into two classes:

* ``recon`` jobs: one scenario (sampled from the spec's configuration
  parameters and seed), reconnoitred target-by-target.  Each target is
  a *session* (probe selection + trials); sessions are sharded across
  the persistent :class:`~repro.service.pool.SessionPool`, which plans,
  runs and scores each one whole (in a worker, or in the parent on the
  serial path), and the parent checkpoints one ``ResultDocument`` per
  session and aggregates them into the job result.
* batch jobs (``fig6``/``fig7``/``robustness``/``defend``): run by
  their runner from :data:`repro.experiments.persist.RUNNERS` and
  persisted by :func:`~repro.experiments.persist.result_document`, the
  builder the CLI's ``--out`` uses.

Progress streams through the obs layer: ``service.jobs.submitted`` /
``service.jobs.completed`` / ``service.sessions.completed`` counters,
the ``service.sessions.active`` gauge, ``service.checkpoint.hits`` for
resumed work, and per-job/per-session spans.

The determinism contract (pinned by tests/service/test_service.py):
a service killed at any point and restarted on the same state
directory completes the job with checkpoint and result digests
bit-identical to an uninterrupted run of the same spec, because every
session's randomness is keyed ``[seed, session_index]`` and every
checkpoint is written atomically.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Iterable, List, Optional, Tuple

from repro.apispec import EXPERIMENTS, JobSpec, canonical_experiment
from repro.experiments.persist import RUNNERS, result_document
from repro.flows.config import ConfigGenerator, NetworkConfiguration
from repro.obs import get_instrumentation
from repro.service.checkpoint import (
    CheckpointStore,
    PathLike,
    job_document,
    session_document,
)
from repro.service.pool import SessionPool, SessionTask
from repro.service.sessions import eligible_targets

#: Experiments the service accepts: recon sessions and every batch
#: runner (others have no service semantics: ``reproduce`` composes
#: jobs, ``select`` is interactive tooling).
SERVICE_EXPERIMENTS: Tuple[str, ...] = ("recon", *RUNNERS)


class ServiceBudgetExhausted(RuntimeError):
    """Raised when ``max_sessions`` runs out with work still pending.

    The service stops *between* checkpoints, so everything completed so
    far is durably on disk and a later service run resumes exactly
    where this one stopped (the CLI maps this to exit code 3).
    """

    def __init__(self, job_id: str, completed: int, pending: int) -> None:
        super().__init__(
            f"session budget exhausted in job {job_id!r}: "
            f"{completed} session(s) checkpointed, {pending} still pending"
        )
        self.job_id = job_id
        self.completed = completed
        self.pending = pending


class ReconService:
    """Concurrent reconnaissance sessions behind a job queue.

    Parameters
    ----------
    state:
        Checkpoint directory (shared by successive service runs; this
        is what makes kill/resume work).
    shards:
        Worker processes for the session pool; ``1`` runs everything
        serially in the parent.
    max_sessions:
        Optional budget of *newly executed* sessions (checkpoint hits
        are free).  Exhausting it raises
        :class:`ServiceBudgetExhausted` from :meth:`drain`.
    """

    def __init__(
        self,
        state: PathLike,
        *,
        shards: int = 1,
        max_sessions: Optional[int] = None,
    ) -> None:
        self.store = CheckpointStore(state)
        self.pool = SessionPool(shards)
        self.shards = max(1, int(shards))
        self.max_sessions = max_sessions
        self.sessions_run = 0
        self._queue: "asyncio.Queue[JobSpec]" = asyncio.Queue()
        self._pending: Dict[str, JobSpec] = {}
        self._completed: Dict[str, Dict[str, object]] = {}
        #: One sampled scenario per scenario key; its compact model is
        #: memoised per process by the pool (``self.pool.models``).
        self._scenarios: Dict[str, NetworkConfiguration] = {}

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Enqueue a job; returns its id.

        A spec without a ``job_id`` gets the deterministic default
        ``job-<digest12>``.  Duplicate ids are rejected: an id already
        queued, or recorded in the state directory under a *different*
        spec digest, is an error.  Resubmitting the identical spec is
        the resume path -- completed sessions are loaded from
        checkpoints instead of re-run.
        """
        spec = resume_spec(spec)
        if spec.seed is None:
            raise ValueError("service jobs require an explicit seed")
        job_id = spec.job_id
        assert job_id is not None
        if job_id in self._pending:
            raise ValueError(f"duplicate job id: {job_id!r} is already queued")
        recorded = self.store.load_job(job_id)
        if recorded is not None and recorded.digest() != spec.digest():
            raise ValueError(
                f"job id {job_id!r} already exists with a different spec "
                f"(digest {recorded.digest()[:12]} != {spec.digest()[:12]})"
            )
        self.store.record_job(spec)
        self._pending[job_id] = spec
        self._queue.put_nowait(spec)
        get_instrumentation().metrics.counter("service.jobs.submitted").inc()
        return job_id

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def drain(self) -> Dict[str, Dict[str, object]]:
        """Run every queued job to completion; returns id -> result.

        Jobs run in submission order; sessions within a ``recon`` job
        are sharded ``shards`` at a time through the pool.  On budget
        exhaustion the current checkpoints are already durable and the
        exception propagates after the in-flight batch lands.
        """
        obs = get_instrumentation()
        while not self._queue.empty():
            spec = self._queue.get_nowait()
            job_id = spec.job_id
            assert job_id is not None
            with obs.span("service.job", job=job_id, experiment=spec.experiment):
                if spec.experiment == "recon":
                    result = await self._run_recon(spec)
                else:
                    result = await self._run_batch(spec)
            self._completed[job_id] = result
            del self._pending[job_id]
            obs.metrics.counter("service.jobs.completed").inc()
        return dict(self._completed)

    def _charge_budget(self, spec: JobSpec, completed: int, pending: int) -> None:
        if self.max_sessions is None:
            return
        if self.sessions_run >= self.max_sessions and pending:
            raise ServiceBudgetExhausted(
                spec.job_id or "?", completed, pending
            )

    def _scenario_for(self, key: str, spec: JobSpec) -> NetworkConfiguration:
        """The job's sampled scenario (cached per scenario ``key``)."""
        scenario = self._scenarios.get(key)
        if scenario is None:
            params = spec.to_params()
            scenario = ConfigGenerator(params.config, seed=spec.seed).sample()
            self._scenarios[key] = scenario
        return scenario

    @staticmethod
    def _scenario_key(spec: JobSpec) -> str:
        config = spec.to_dict()["config"]
        return repr((config, spec.seed))

    async def _run_recon(self, spec: JobSpec) -> Dict[str, object]:
        """Run (or resume) one recon job session-by-session."""
        job_id = spec.job_id
        assert job_id is not None
        obs = get_instrumentation()
        key = self._scenario_key(spec)
        scenario = self._scenario_for(key, spec)
        targets = eligible_targets(scenario, spec)

        rows: Dict[int, Dict[str, object]] = {}
        for index, document in self.store.completed_sessions(job_id).items():
            if index < len(targets):
                rows[index] = document["series"]["session"]  # type: ignore[index]
                obs.metrics.counter("service.checkpoint.hits").inc()
        pending = [
            (index, target)
            for index, target in enumerate(targets)
            if index not in rows
        ]

        active = obs.metrics.gauge("service.sessions.active")
        while pending:
            self._charge_budget(spec, len(rows), len(pending))
            batch = pending[: self.shards]
            if self.max_sessions is not None:
                batch = batch[: self.max_sessions - self.sessions_run]
            pending = pending[len(batch):]
            tasks: List[SessionTask] = [
                (key, scenario, spec, index, target) for index, target in batch
            ]
            active.set(len(tasks))
            try:
                with obs.span(
                    "service.session.batch", job=job_id, sessions=len(tasks)
                ):
                    batch_rows = self.pool.run_sessions(tasks)
            finally:
                active.set(0)
            for (index, _), row in zip(batch, batch_rows):
                self.store.write_session(
                    job_id, index, session_document(spec, row)
                )
                rows[index] = row
                self.sessions_run += 1
                obs.metrics.counter("service.sessions.completed").inc()
            # Yield between batches so a long job cannot starve other
            # coroutines sharing the loop (progress readers, signals).
            await asyncio.sleep(0)

        document = job_document(
            spec, [rows[index] for index in sorted(rows)]
        )
        self.store.write_result(job_id, document)
        return document

    async def _run_batch(self, spec: JobSpec) -> Dict[str, object]:
        """Run a fig6/fig7/robustness/defend job through its runner."""
        job_id = spec.job_id
        assert job_id is not None
        existing = self.store.load_result(job_id)
        if existing is not None:
            get_instrumentation().metrics.counter(
                "service.checkpoint.hits"
            ).inc()
            return existing
        document = result_document(RUNNERS[spec.experiment](spec), spec)
        self.store.write_result(job_id, document)
        await asyncio.sleep(0)
        return document

    def close(self) -> None:
        """Release the session pool (idempotent)."""
        self.pool.close()


def serve_jobs(
    specs: Iterable[JobSpec],
    state: PathLike,
    *,
    shards: int = 1,
    max_sessions: Optional[int] = None,
) -> Dict[str, Dict[str, object]]:
    """Submit ``specs`` to a fresh service and drain it (sync wrapper)."""
    service = ReconService(state, shards=shards, max_sessions=max_sessions)
    try:
        for spec in specs:
            service.submit(spec)
        return asyncio.run(service.drain())
    finally:
        service.close()


def check_servable(experiment: str) -> None:
    """Raise ``ValueError`` unless the service runs ``experiment``.

    The one check behind :func:`resume_spec` and ``repro-sdn submit``,
    which runs it on the subcommand's experiment name (figure variants
    included) before building a spec; both messages list
    :data:`SERVICE_EXPERIMENTS`.
    """
    experiment = canonical_experiment(experiment)
    if experiment in SERVICE_EXPERIMENTS:
        return
    served = ", ".join(SERVICE_EXPERIMENTS)
    if experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment: {experiment!r}; expected one of {served}"
        )
    raise ValueError(
        f"experiment {experiment!r} cannot be served; expected one of {served}"
    )


def resume_spec(spec: JobSpec) -> JobSpec:
    """Normalise a spec the way :meth:`ReconService.submit` does.

    An experiment outside :data:`SERVICE_EXPERIMENTS` raises
    ``ValueError`` (:func:`check_servable`); a spec without a ``job_id``
    gets the deterministic default ``job-<digest12>``.
    """
    check_servable(spec.experiment)
    if spec.job_id is None:
        return spec.with_job_id(f"job-{spec.digest()[:12]}")
    return spec


__all__ = [
    "ReconService",
    "SERVICE_EXPERIMENTS",
    "ServiceBudgetExhausted",
    "check_servable",
    "serve_jobs",
    "resume_spec",
]
