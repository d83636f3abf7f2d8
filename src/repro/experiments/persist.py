"""Persist experiment results as JSON for plotting and archival.

The figure objects (:class:`~repro.experiments.fig6.Fig6Result`,
:class:`~repro.experiments.fig7.Fig7Result`) carry live references to
configurations; this module flattens them into plain-JSON documents so a
full run's numbers can be archived, diffed between runs, or plotted
without re-running hours of sampling.

Since schema version 2 every artifact shares one envelope, the
:class:`ResultDocument`:

* ``artifact`` / ``schema_version`` -- what this is and how to read it;
* ``job`` -- the full :class:`~repro.apispec.JobSpec` the run was
  submitted with (schema version 3; the unified job API);
* ``params`` -- the :class:`~repro.experiments.params.ExperimentParams`
  the run used (when known);
* ``metrics`` -- the artifact's headline numbers (``headline`` for
  fig6, ``summary`` for fig7);
* ``series`` -- the plottable series (bins, accuracy curves, CDFs);
* ``configurations`` -- per-configuration rows;
* ``provenance`` -- repro version, git commit, and seed.

For backward compatibility the legacy v1 top-level keys (``headline``,
``summary``, ``bins``, ``accuracy_series``, ...) are still mirrored at
the top level on save, and :func:`load_document` upgrades old files to
the current shape in memory via :func:`migrate_document`.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.deprecation import keyword_only

if TYPE_CHECKING:
    from repro.apispec import JobSpec
from repro.experiments.defend import DefendResult
from repro.experiments.fig6 import Fig6Result
from repro.experiments.fig7 import Fig7Result
from repro.experiments.harness import ConfigResult
from repro.experiments.params import ExperimentParams
from repro.experiments.robustness import RobustnessResult
from repro.version import __version__

PathLike = Union[str, Path]

#: Current result-document schema.  v1 (implicit, unversioned) had
#: per-artifact ad-hoc shapes; v2 is the unified envelope; v3 records
#: the full :class:`~repro.apispec.JobSpec` under ``job``.
SCHEMA_VERSION = 3

#: Where each artifact's v1 shape kept its headline metrics.
_LEGACY_METRICS_KEY = {"fig6": "headline", "fig7": "summary"}


@lru_cache(maxsize=1)
def _git_sha() -> Optional[str]:
    """The current git commit, if the repo and git are available.

    Cached for the life of the process: the service stamps every
    session checkpoint with provenance, and one ``git rev-parse``
    subprocess per document would dominate short sessions.
    """
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = output.stdout.strip()
    return sha if output.returncode == 0 and sha else None


@dataclass(frozen=True)
class ResultDocument:
    """The unified, versioned envelope every saved result uses."""

    artifact: str
    metrics: Dict[str, object]
    series: Dict[str, object]
    configurations: List[List[Dict[str, object]]]
    params: Optional[Dict[str, object]] = None
    provenance: Dict[str, object] = field(default_factory=dict)
    #: The full :class:`~repro.apispec.JobSpec` as a plain-JSON mapping
    #: (schema v3); ``None`` when the spec is unknown (migrated v1).
    job: Optional[Dict[str, object]] = None
    schema_version: int = SCHEMA_VERSION

    def to_json(self) -> Dict[str, object]:
        """Plain-JSON mapping, with the legacy v1 keys mirrored.

        Old consumers read ``document["headline"]`` (fig6),
        ``document["summary"]`` (fig7), and the series keys at the top
        level; those aliases are kept for one more schema generation.
        """
        document: Dict[str, object] = {
            "artifact": self.artifact,
            "schema_version": self.schema_version,
            "version": __version__,
            "job": self.job,
            "params": self.params,
            "metrics": dict(self.metrics),
            "series": dict(self.series),
            "provenance": dict(self.provenance),
            "configurations": self.configurations,
        }
        metrics_alias = _LEGACY_METRICS_KEY.get(self.artifact)
        if metrics_alias is not None:
            document[metrics_alias] = dict(self.metrics)
        for key, value in self.series.items():
            document[key] = value
        return document


def _config_row(result: ConfigResult) -> Dict[str, object]:
    """One configuration's flattened record."""
    return {
        "prior_absent": result.prior_absent,
        "screened": result.screened,
        "optimal_probe": result.optimal_probe,
        "optimal_is_target": result.optimal_is_target,
        "target_flow": result.config.target_flow,
        "n_rules_covering_target": result.n_rules_covering_target,
        "target_install_exclusive": result.target_install_exclusive,
        "trials": result.trials,
        "accuracies": dict(result.accuracies),
        "improvement": result.improvement,
        "target_rate": result.config.universe.rates[
            result.config.target_flow
        ],
    }


def _provenance(
    params: Optional[ExperimentParams],
    seed: Optional[int],
    result: Optional[object] = None,
) -> Dict[str, object]:
    if seed is None and params is not None:
        seed = params.seed
    provenance: Dict[str, object] = {
        "repro_version": __version__,
        "git_sha": _git_sha(),
        "seed": seed,
    }
    # Fan-out provenance (EXPERIMENTS.md, "Parallel execution"): the
    # numbers are identical for every jobs setting, but a document
    # should still record how it was produced -- and whether any pool
    # dispatch degraded to the serial fallback.
    execution = getattr(result, "execution", None)
    if params is not None:
        provenance["trial_jobs"] = params.trial_jobs
    elif execution is not None:
        provenance["trial_jobs"] = execution.n_jobs
    if execution is not None:
        provenance["pool_fallbacks"] = execution.pool_fallbacks
    return provenance


def _params_dict(
    params: Optional[ExperimentParams],
) -> Optional[Dict[str, object]]:
    return asdict(params) if params is not None else None


def _resolve_spec(
    artifact: str,
    spec: Optional["JobSpec"],
    params: Optional[ExperimentParams],
    seed: Optional[int],
) -> Tuple[Optional[Dict[str, object]], Optional[ExperimentParams]]:
    """``(job, params)`` from whichever of spec/params the caller gave.

    A spec is canonical: its ``to_params()`` view fills the legacy
    ``params`` section.  Legacy params-only calls still get a full
    ``job`` record by wrapping them into a :class:`~repro.apispec.JobSpec`.
    """
    if spec is not None:
        return spec.to_dict(), spec.to_params()
    if params is not None:
        from repro.apispec import JobSpec

        wrapped = JobSpec.from_params(params, experiment=artifact)
        if params.seed is None and seed is not None:
            wrapped = dataclasses.replace(wrapped, seed=seed)
        return wrapped.to_dict(), params
    return None, None


@keyword_only
def fig6_to_document(
    result: Fig6Result,
    *,
    params: Optional[ExperimentParams] = None,
    seed: Optional[int] = None,
    spec: Optional["JobSpec"] = None,
) -> Dict[str, object]:
    """A plain-JSON :class:`ResultDocument` for a Figure 6 run."""
    job, params = _resolve_spec("fig6", spec, params, seed)
    return ResultDocument(
        artifact="fig6",
        metrics=result.headline(),
        series={
            "bins": [list(b) for b in result.bins],
            "bin_centers": result.bin_centers(),
            "accuracy_series": result.accuracy_series(),
            "improvement_cdf": [list(p) for p in result.improvement_cdf()],
        },
        configurations=[
            [_config_row(r) for r in bucket]
            for bucket in result.results_per_bin
        ],
        params=_params_dict(params),
        provenance=_provenance(params, seed, result),
        job=job,
    ).to_json()


@keyword_only
def fig7_to_document(
    result: Fig7Result,
    *,
    params: Optional[ExperimentParams] = None,
    seed: Optional[int] = None,
    spec: Optional["JobSpec"] = None,
) -> Dict[str, object]:
    """A plain-JSON :class:`ResultDocument` for a Figure 7 run."""
    job, params = _resolve_spec("fig7", spec, params, seed)
    return ResultDocument(
        artifact="fig7",
        metrics=result.summary(),
        series={
            "bins": [list(b) for b in result.bins],
            "bin_centers": result.bin_centers(),
            "accuracy_series": result.accuracy_series(),
            "accuracy_by_covering_count": {
                str(count): row
                for count, row in result.accuracy_by_covering_count().items()
            },
        },
        configurations=[
            [_config_row(r) for r in bucket]
            for bucket in result.results_per_bin
        ],
        params=_params_dict(params),
        provenance=_provenance(params, seed, result),
        job=job,
    ).to_json()


@keyword_only
def robustness_to_document(
    result: RobustnessResult,
    *,
    params: Optional[ExperimentParams] = None,
    seed: Optional[int] = None,
    spec: Optional["JobSpec"] = None,
) -> Dict[str, object]:
    """A plain-JSON :class:`ResultDocument` for a robustness sweep."""
    job, params = _resolve_spec("robustness", spec, params, seed)
    return ResultDocument(
        artifact="robustness",
        metrics=result.summary(),
        series={
            "rates": list(result.rates),
            "kinds": list(result.kinds),
            "accuracy_series": result.accuracy_series(),
            "faults_injected": result.faults_injected(),
            "counters_per_rate": [
                dict(c) for c in result.counters_per_rate
            ],
        },
        configurations=[
            [_config_row(r) for r in bucket]
            for bucket in result.results_per_rate
        ],
        params=_params_dict(params),
        provenance=_provenance(params, seed, result),
        job=job,
    ).to_json()


@keyword_only
def defend_to_document(
    result: DefendResult,
    *,
    params: Optional[ExperimentParams] = None,
    seed: Optional[int] = None,
    spec: Optional["JobSpec"] = None,
) -> Dict[str, object]:
    """A plain-JSON :class:`ResultDocument` for a defend grid run.

    ``configurations`` carries the baseline buckets first (one per
    rate), then the grid cells in the result's (defense-major,
    rate-minor) order, mirroring ``series["cells"]``.
    """
    job, params = _resolve_spec("defend", spec, params, seed)
    return ResultDocument(
        artifact="defend",
        metrics=result.summary(),
        series={
            "defenses": list(result.defenses),
            "rates": list(result.rates),
            "kinds": list(result.kinds),
            "detector_method": result.detector_method,
            "structural_leakage_bits": result.structural_leakage_bits,
            "baseline": [cell.to_dict() for cell in result.baseline],
            "cells": [cell.to_dict() for cell in result.cells],
        },
        configurations=[
            [_config_row(r) for r in bucket]
            for bucket in result.baseline_results + result.results_per_cell
        ],
        params=_params_dict(params),
        provenance=_provenance(params, seed, result),
        job=job,
    ).to_json()


@keyword_only
def save_result(
    result: Union[Fig6Result, Fig7Result, RobustnessResult, DefendResult],
    path: PathLike,
    *,
    params: Optional[ExperimentParams] = None,
    seed: Optional[int] = None,
    spec: Optional["JobSpec"] = None,
) -> Path:
    """Serialise a figure result to ``path`` (JSON); returns the path.

    ``spec`` (canonical) or ``params``/``seed`` (legacy), when given,
    are recorded in the document's ``job``/``params``/``provenance``
    sections.
    """
    if isinstance(result, Fig6Result):
        document = fig6_to_document(result, params=params, seed=seed, spec=spec)
    elif isinstance(result, Fig7Result):
        document = fig7_to_document(result, params=params, seed=seed, spec=spec)
    elif isinstance(result, RobustnessResult):
        document = robustness_to_document(
            result, params=params, seed=seed, spec=spec
        )
    elif isinstance(result, DefendResult):
        document = defend_to_document(
            result, params=params, seed=seed, spec=spec
        )
    else:
        raise TypeError(f"unsupported result type: {type(result).__name__}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def _job_from_legacy_params(
    params: object, artifact: str, provenance: object
) -> Optional[Dict[str, object]]:
    """Reconstruct a v3 ``job`` record from a v2 ``params`` section.

    v2 documents recorded the flattened ``ExperimentParams`` (config
    nested as a dict, fault plan as a dict) plus a provenance seed; the
    migration lifts those back into a validated
    :class:`~repro.apispec.JobSpec`.  Malformed or hand-edited params
    migrate to ``job: None`` rather than failing the load.
    """
    if not isinstance(params, dict):
        return None
    from repro.apispec import EXPERIMENTS, JobSpec

    seed = params.get("seed")
    if seed is None and isinstance(provenance, dict):
        seed = provenance.get("seed")
    job_document: Dict[str, object] = {
        "experiment": artifact if artifact in EXPERIMENTS else "fig6",
        "seed": seed,
    }
    renamed = {"selection_n_jobs": "selection_jobs"}
    for key, value in params.items():
        if key == "seed":
            continue
        job_document[renamed.get(key, key)] = value
    try:
        return JobSpec.from_dict(job_document).to_dict()
    except (TypeError, ValueError):
        return None


def migrate_document(document: Dict[str, object]) -> Dict[str, object]:
    """Upgrade a result document to the current schema, in memory.

    v1 documents (no ``schema_version``) gain the unified envelope:
    ``metrics`` from the artifact's legacy headline key, ``series`` from
    the legacy top-level series keys, empty ``params``/``provenance``,
    and ``job: None`` (a v1 file recorded no parameters to lift).  v2
    documents gain ``job``: the full :class:`~repro.apispec.JobSpec`
    reconstructed from their ``params`` + ``provenance`` sections.
    Already-current documents are returned unchanged.
    """
    if document.get("schema_version") == SCHEMA_VERSION:
        return document
    artifact = document.get("artifact")
    if not isinstance(artifact, str):
        raise ValueError("not an experiment document: missing 'artifact'")
    upgraded = dict(document)
    upgraded["schema_version"] = SCHEMA_VERSION
    metrics_key = _LEGACY_METRICS_KEY.get(artifact)
    upgraded.setdefault(
        "metrics",
        dict(document.get(metrics_key, {})) if metrics_key else {},  # type: ignore[arg-type]
    )
    series_keys = (
        "bins",
        "bin_centers",
        "accuracy_series",
        "improvement_cdf",
        "accuracy_by_covering_count",
    )
    upgraded.setdefault(
        "series",
        {key: document[key] for key in series_keys if key in document},
    )
    upgraded.setdefault("params", None)
    upgraded.setdefault(
        "provenance",
        {"repro_version": document.get("version"), "git_sha": None, "seed": None},
    )
    if upgraded.get("job") is None:
        upgraded["job"] = _job_from_legacy_params(
            upgraded.get("params"), artifact, upgraded.get("provenance")
        )
    return upgraded


def load_document(path: PathLike) -> Dict[str, object]:
    """Load a previously saved experiment document (any schema version).

    Old (v1) files are upgraded in memory via :func:`migrate_document`;
    the file itself is never rewritten.
    """
    document = json.loads(Path(path).read_text())
    if not isinstance(document, dict) or "artifact" not in document:
        raise ValueError(f"{path} is not an experiment document")
    return migrate_document(document)


def _headline_metrics(document: Dict[str, object]) -> Dict[str, float]:
    """The fig6 headline mapping from a v1 or v2 document."""
    metrics = document.get("metrics")
    if isinstance(metrics, dict) and metrics:
        return metrics  # type: ignore[return-value]
    return document.get("headline", {})  # type: ignore[return-value]


def compare_headlines(
    old: Dict[str, object], new: Dict[str, object]
) -> List[Dict[str, float]]:
    """Row-wise comparison of two fig6 documents' headline statistics.

    Useful for regression-tracking the reproduction between code
    changes: each row carries the metric, both values, and the delta.
    Accepts v1 and v2 documents interchangeably.
    """
    if old.get("artifact") != "fig6" or new.get("artifact") != "fig6":
        raise ValueError("headline comparison requires fig6 documents")
    rows = []
    old_headline = _headline_metrics(old)
    new_headline = _headline_metrics(new)
    for metric in sorted(set(old_headline) | set(new_headline)):
        old_value = old_headline.get(metric)
        new_value = new_headline.get(metric)
        row = {"metric": metric, "old": old_value, "new": new_value}
        if old_value is not None and new_value is not None:
            row["delta"] = new_value - old_value
        rows.append(row)
    return rows
