"""Job spool: how ``repro-sdn submit`` hands jobs to ``repro-sdn serve``.

The spool is a plain directory of ``<job_id>.json`` files, each the
``to_dict`` form of one :class:`~repro.apispec.JobSpec` (written
atomically, like every service file).  ``submit`` drops specs in;
``serve`` lists the spool, submits everything in deterministic
(job-id) order, and leaves the files in place -- the checkpoint store,
not the spool, is the source of truth for what has already run, so
re-serving a drained spool is a no-op resume rather than a re-run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.apispec import JobSpec
from repro.service.checkpoint import PathLike, _atomic_write
from repro.service.service import resume_spec


def submit_spec(spool: PathLike, spec: JobSpec) -> Path:
    """Write one job into the spool; returns the spool file path.

    An experiment the service cannot run raises ``ValueError`` here,
    not at ``serve`` time (:func:`~repro.service.service.resume_spec`).
    The spec gets its deterministic default job id if it has none.  An
    existing spool entry under the same id must carry the same spec
    digest; anything else is a duplicate-id error, mirroring
    :meth:`~repro.service.service.ReconService.submit`.
    """
    spec = resume_spec(spec)
    assert spec.job_id is not None
    path = Path(spool) / f"{spec.job_id}.json"
    if path.exists():
        existing = JobSpec.from_dict(json.loads(path.read_text()))
        if existing.digest() != spec.digest():
            raise ValueError(
                f"job id {spec.job_id!r} already spooled with a "
                "different spec"
            )
        return path
    _atomic_write(path, json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return path


def list_pending(spool: PathLike) -> List[JobSpec]:
    """All spooled jobs, in deterministic job-id order."""
    directory = Path(spool)
    if not directory.exists():
        return []
    specs: List[JobSpec] = []
    for path in sorted(directory.glob("*.json")):
        specs.append(JobSpec.from_dict(json.loads(path.read_text())))
    return specs


__all__ = ["submit_spec", "list_pending"]
