"""Checkpoint store: crash-safe, resumable service state.

Layout under the service state directory::

    <state>/<job_id>/job.json                submitted JobSpec + digest
    <state>/<job_id>/sessions/<NNNN>.json    one ResultDocument per session
    <state>/<job_id>/result.json             final job ResultDocument

Every file is written atomically (temp file + ``os.replace`` in the
same directory), so a kill at any instant leaves either the previous
state or the new one -- never a torn JSON.  Sessions are keyed by
their deterministic index, and each checkpoint is the session's full
:class:`~repro.experiments.persist.ResultDocument` envelope (artifact
``recon.session``, schema v3 with the ``job`` section), so a restarted
service can re-aggregate the final document from checkpoints alone.

Bit-identical resume is the contract the lifecycle tests pin: because
session randomness is keyed ``[seed, index]`` (never by execution
order) and checkpoints carry only deterministic content, the digests
of a killed-and-resumed run equal those of an uninterrupted run of the
same spec.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.apispec import JobSpec
from repro.experiments.persist import ResultDocument, job_provenance

PathLike = Union[str, Path]


def document_digest(document: Dict[str, object]) -> str:
    """Canonical sha256 of a plain-JSON document (sorted keys)."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _atomic_write(path: Path, payload: str) -> None:
    """Write-then-rename so readers never see a torn file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def session_document(spec: JobSpec, row: Dict[str, object]) -> Dict[str, object]:
    """One session's checkpoint, in the unified v3 envelope."""
    return ResultDocument(
        artifact="recon.session",
        metrics=dict(row["accuracies"]),  # type: ignore[arg-type]
        series={"session": row},
        configurations=[],
        params=None,
        provenance=job_provenance(spec),
        job=spec.to_dict(),
    ).to_json()


def job_document(
    spec: JobSpec, rows: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """The final job result, aggregated over its session rows."""
    rows = list(rows)
    names = sorted(rows[0]["accuracies"]) if rows else []  # type: ignore[index]
    metrics: Dict[str, object] = {
        name: sum(row["accuracies"][name] for row in rows) / len(rows)  # type: ignore[index]
        for name in names
    }
    metrics["n_sessions"] = float(len(rows))
    return ResultDocument(
        artifact="recon",
        metrics=metrics,
        series={"sessions": rows},
        configurations=[],
        params=None,
        provenance=job_provenance(spec),
        job=spec.to_dict(),
    ).to_json()


class CheckpointStore:
    """Atomic persistence of job specs, session checkpoints, results."""

    def __init__(self, root: PathLike) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"invalid job id: {job_id!r}")
        return self.root / job_id

    def _session_path(self, job_id: str, index: int) -> Path:
        return self.job_dir(job_id) / "sessions" / f"{int(index):04d}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- job spec ------------------------------------------------------
    def record_job(self, spec: JobSpec) -> None:
        if spec.job_id is None:
            raise ValueError("spec has no job_id")
        record = {"spec": spec.to_dict(), "digest": spec.digest()}
        _atomic_write(
            self.job_dir(spec.job_id) / "job.json",
            json.dumps(record, indent=2, sort_keys=True),
        )

    def load_job(self, job_id: str) -> Optional[JobSpec]:
        path = self.job_dir(job_id) / "job.json"
        if not path.exists():
            return None
        record = json.loads(path.read_text())
        return JobSpec.from_dict(record["spec"])

    def known_jobs(self) -> List[str]:
        if not self.root.exists():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if (entry / "job.json").exists()
        )

    # -- session checkpoints -------------------------------------------
    def write_session(
        self, job_id: str, index: int, document: Dict[str, object]
    ) -> Path:
        path = self._session_path(job_id, index)
        _atomic_write(path, json.dumps(document, indent=2, sort_keys=True))
        return path

    def completed_sessions(self, job_id: str) -> Dict[int, Dict[str, object]]:
        """Checkpointed session documents, keyed by session index."""
        directory = self.job_dir(job_id) / "sessions"
        if not directory.exists():
            return {}
        sessions: Dict[int, Dict[str, object]] = {}
        for path in sorted(directory.glob("[0-9]*.json")):
            sessions[int(path.stem)] = json.loads(path.read_text())
        return sessions

    # -- final result --------------------------------------------------
    def write_result(self, job_id: str, document: Dict[str, object]) -> Path:
        path = self._result_path(job_id)
        _atomic_write(path, json.dumps(document, indent=2, sort_keys=True))
        return path

    def load_result(self, job_id: str) -> Optional[Dict[str, object]]:
        path = self._result_path(job_id)
        if not path.exists():
            return None
        return json.loads(path.read_text())

    def digests(self, job_id: str) -> Dict[str, str]:
        """Digest of every stored document (the bit-identity probe)."""
        digests: Dict[str, str] = {}
        for index, document in self.completed_sessions(job_id).items():
            digests[f"session/{index:04d}"] = document_digest(document)
        result = self.load_result(job_id)
        if result is not None:
            digests["result"] = document_digest(result)
        return digests


__all__ = [
    "CheckpointStore",
    "document_digest",
    "job_document",
    "session_document",
]
