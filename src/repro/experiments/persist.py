"""Persist experiment results as JSON for plotting and archival.

The batch results (:class:`~repro.experiments.fig6.Fig6Result`,
:class:`~repro.experiments.fig7.Fig7Result`, the robustness sweep and
the defend grid) carry live references to configurations; this module
flattens them into plain-JSON documents so a full run's numbers can be
archived, diffed between runs, or plotted without re-running hours of
sampling.  It is also the one place that knows which batch experiments
exist: :data:`RUNNERS` maps each to its runner (the CLI,
``reproduce_all`` and the service all dispatch through it), and
:func:`result_document` builds each one's document from its
:class:`~repro.apispec.JobSpec`.

Since schema version 2 every artifact shares one envelope, the
:class:`ResultDocument`:

* ``artifact`` / ``schema_version`` -- what this is and how to read it;
* ``job`` -- the full :class:`~repro.apispec.JobSpec` the run was
  submitted with (schema version 3; the unified job API);
* ``params`` -- the spec's
  :class:`~repro.experiments.params.ExperimentParams` view (``None``
  on the service's recon documents);
* ``metrics`` -- the artifact's headline numbers (``headline`` for
  fig6, ``summary`` for fig7);
* ``series`` -- the plottable series (bins, accuracy curves, CDFs);
* ``configurations`` -- per-configuration rows;
* ``provenance`` -- repro version, git commit, and seed.

The v1 top-level keys (``headline``, ``summary``, ``bins``,
``accuracy_series``, ...) are still mirrored at the top level on save,
so written bytes stay the same for old consumers; and
:func:`load_document` still reads v1 and v2 files, upgrading them to
the current shape in memory via :func:`migrate_document`.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union,
)

from repro.apispec import EXPERIMENTS, JobSpec, require_spec
from repro.experiments.defend import DefendResult, run_defend
from repro.experiments.fig6 import Fig6Result, run_fig6
from repro.experiments.fig7 import Fig7Result, run_fig7
from repro.experiments.harness import ConfigResult
from repro.experiments.robustness import RobustnessResult, run_robustness
from repro.version import __version__

PathLike = Union[str, Path]

BatchResult = Union[Fig6Result, Fig7Result, RobustnessResult, DefendResult]

#: The runner of every batch experiment, by ``JobSpec.experiment``.
RUNNERS: Dict[str, Callable[[JobSpec], Any]] = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "robustness": run_robustness,
    "defend": run_defend,
}

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


def job_provenance(spec: JobSpec) -> Dict[str, object]:
    """Repro version, git commit and seed of a document built for ``spec``."""
    return {
        "repro_version": __version__,
        "git_sha": _git_sha(),
        "seed": spec.seed,
    }


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
        level; those mirrors are still written, so a document's bytes
        do not depend on which consumer reads it.
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


#: An artifact's own sections: metrics, series, configuration buckets.
_Sections = Tuple[
    Dict[str, float], Dict[str, object], Sequence[Sequence[ConfigResult]]
]


def _fig6_sections(result: Fig6Result) -> _Sections:
    return result.headline(), {
        "bins": [list(b) for b in result.bins],
        "bin_centers": result.bin_centers(),
        "accuracy_series": result.accuracy_series(),
        "improvement_cdf": [list(p) for p in result.improvement_cdf()],
    }, result.results_per_bin


def _fig7_sections(result: Fig7Result) -> _Sections:
    return result.summary(), {
        "bins": [list(b) for b in result.bins],
        "bin_centers": result.bin_centers(),
        "accuracy_series": result.accuracy_series(),
        "accuracy_by_covering_count": {
            str(count): row
            for count, row in result.accuracy_by_covering_count().items()
        },
    }, result.results_per_bin


def _robustness_sections(result: RobustnessResult) -> _Sections:
    return result.summary(), {
        "rates": list(result.rates),
        "kinds": list(result.kinds),
        "accuracy_series": result.accuracy_series(),
        "faults_injected": result.faults_injected(),
        "counters_per_rate": [dict(c) for c in result.counters_per_rate],
    }, result.results_per_rate


def _defend_sections(result: DefendResult) -> _Sections:
    # The baseline buckets first (one per rate), then the grid cells in
    # the result's (defense-major, rate-minor) order, as in "cells".
    return result.summary(), {
        "defenses": list(result.defenses),
        "rates": list(result.rates),
        "kinds": list(result.kinds),
        "detector_method": result.detector_method,
        "structural_leakage_bits": result.structural_leakage_bits,
        "baseline": [cell.to_dict() for cell in result.baseline],
        "cells": [cell.to_dict() for cell in result.cells],
    }, result.baseline_results + result.results_per_cell


#: Each batch result type's artifact name and sections.
_ARTIFACTS: Dict[Type[Any], Tuple[str, Callable[[Any], _Sections]]] = {
    Fig6Result: ("fig6", _fig6_sections),
    Fig7Result: ("fig7", _fig7_sections),
    RobustnessResult: ("robustness", _robustness_sections),
    DefendResult: ("defend", _defend_sections),
}


def result_document(result: BatchResult, spec: JobSpec) -> Dict[str, object]:
    """The plain-JSON :class:`ResultDocument` of a batch run of ``spec``.

    ``spec`` fills the ``job`` and ``params`` sections and the
    provenance, which also records the run's ``trial_jobs`` and how
    many pool maps fell back to the parent (EXPERIMENTS.md, "Parallel
    execution": the numbers are identical for every setting, but a
    document still records how it was produced).  Anything but a
    :class:`~repro.apispec.JobSpec`, or a result of another type,
    raises ``TypeError``.
    """
    spec, params = require_spec(spec, caller="result_document")
    entry = _ARTIFACTS.get(type(result))
    if entry is None:
        raise TypeError(f"unsupported result type: {type(result).__name__}")
    artifact, sections = entry
    metrics, series, buckets = sections(result)
    provenance = job_provenance(spec)
    provenance["trial_jobs"] = params.trial_jobs
    provenance["pool_fallbacks"] = result.pool_fallbacks
    return ResultDocument(
        artifact=artifact,
        metrics=dict(metrics),
        series=series,
        configurations=[
            [_config_row(r) for r in bucket] for bucket in buckets
        ],
        params=asdict(params),
        provenance=provenance,
        job=spec.to_dict(),
    ).to_json()


def save_result(result: BatchResult, path: PathLike, spec: JobSpec) -> Path:
    """Write ``result``'s :func:`result_document` to ``path``; returns it."""
    document = result_document(result, spec)
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
