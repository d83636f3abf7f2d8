"""Concurrent reconnaissance session service (docs/SERVICE.md).

Public surface:

* :class:`~repro.service.service.ReconService` -- the asyncio job
  front-end; :func:`~repro.service.service.serve_jobs` is the sync
  one-shot wrapper the CLI uses.
* :class:`~repro.service.checkpoint.CheckpointStore` -- atomic,
  resumable on-disk state.
* :func:`~repro.service.spool.submit_spec` /
  :func:`~repro.service.spool.list_pending` -- the submit/serve spool.
"""

from repro.service.checkpoint import (
    CheckpointStore,
    document_digest,
    job_document,
    session_document,
)
from repro.service.pool import SessionPool
from repro.service.service import (
    SERVICE_EXPERIMENTS,
    ReconService,
    ServiceBudgetExhausted,
    resume_spec,
    serve_jobs,
)
from repro.service.sessions import (
    eligible_targets,
    plan_session,
    session_row,
)
from repro.service.spool import list_pending, submit_spec

__all__ = [
    "CheckpointStore",
    "ReconService",
    "SERVICE_EXPERIMENTS",
    "ServiceBudgetExhausted",
    "SessionPool",
    "document_digest",
    "eligible_targets",
    "job_document",
    "list_pending",
    "plan_session",
    "resume_spec",
    "serve_jobs",
    "session_document",
    "session_row",
    "submit_spec",
]
