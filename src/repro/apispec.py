"""The unified public job API: :class:`JobSpec`.

Before this module every entry point took a different slice of the same
knobs: ``ExperimentParams`` covered the figure pipelines, while the
fault plan, probe retries, fan-out widths, and seed
arrived as loose CLI flags or keyword arguments.  :class:`JobSpec`
subsumes all of them in one frozen, validated, JSON-round-trippable
dataclass -- the single submission type shared by the batch CLI
(``repro-sdn fig6a ... --out``), the programmatic runners
(:func:`~repro.experiments.fig6.run_fig6` and friends), and the
reconnaissance session service (:mod:`repro.service`).

Round trips::

    spec = JobSpec.from_args(args, "fig6")      # CLI namespace
    spec == JobSpec.from_dict(spec.to_dict())   # JSON documents
    params = spec.to_params()                    # experiment layer

The runners take a :class:`JobSpec` only (:func:`require_spec`);
``JobSpec.from_params`` wraps an existing ``ExperimentParams``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional, Tuple

from repro.experiments.params import ExperimentParams
from repro.faults import FaultPlan
from repro.flows.config import ConfigParams

#: Experiments a job can request.  ``recon`` is the service's native
#: many-target session workload (docs/SERVICE.md); the rest map onto
#: the batch runners.
EXPERIMENTS: Tuple[str, ...] = (
    "fig6",
    "fig7",
    "robustness",
    "reproduce",
    "select",
    "recon",
    "defend",
)

#: CLI subcommands that share a runner (``JobSpec.from_args`` callers
#: pass the subcommand name; the spec stores the canonical experiment).
_EXPERIMENT_ALIASES: Dict[str, str] = {
    "fig6a": "fig6",
    "fig6b": "fig6",
    "headline": "fig6",
    "fig7a": "fig7",
    "fig7b": "fig7",
}


def canonical_experiment(name: str) -> str:
    """The experiment a CLI subcommand name runs (figure variants collapse)."""
    return _EXPERIMENT_ALIASES.get(name, name)


def _one_of(*choices: str) -> Tuple[str, Callable[[object], bool]]:
    return f"one of {', '.join(choices)}", choices.__contains__


def _worker_count(value: object) -> bool:
    return type(value) is int and value >= 1


#: Removed fields and the old values that ran the computation the
#: program still runs: every ``kernel``/``simpath`` choice, the
#: independence ``estimator``, any ``selection_jobs`` worker count
#: (probe scoring gave the same gains at every count and now runs in
#: process), and the Section VI protocol's one setting of each attacker
#: rule and of the viability ``screen``.  Each entry is
#: ``(expected, accepts)``.
#: :meth:`JobSpec.from_dict` drops these keys; any other value is an
#: error, since spool files and documents come from outside the program.
LEGACY_FIELDS: Dict[str, Tuple[str, Callable[[object], bool]]] = {
    "kernel": _one_of("dense", "sparse", "auto"),
    "simpath": _one_of("reference", "fastpath", "auto"),
    "estimator": _one_of("independent", "indep"),
    "selection_jobs": ("an integer >= 1", _worker_count),
    "decision": _one_of("query"),
    "constrained_decision": _one_of("map"),
    "random_attacker_mode": _one_of("sample"),
    "screen": ("true", lambda value: value is True),
}


def _params_fields(source: object) -> Dict[str, object]:
    """``source``'s values of every :class:`ExperimentParams` field.

    Read with ``getattr`` (``asdict`` would turn the nested config and
    fault plan into dicts), so both bridge directions follow the field
    list of ``ExperimentParams`` itself.
    """
    return {
        params_field.name: getattr(source, params_field.name)
        for params_field in fields(ExperimentParams)
    }


@dataclass(frozen=True)
class JobSpec:
    """One validated reconnaissance job: every knob in one place.

    The experiment layer's :class:`ExperimentParams` remains the
    internal currency (``to_params()``); ``JobSpec`` adds what used to
    live outside it -- the experiment kind, the probe-selection method,
    the robustness sweep grid, the reproduction scale, and the service
    session fields (``targets``/``n_targets``/``shards``/``job_id``).
    """

    experiment: str = "fig6"
    config: ConfigParams = field(default_factory=ConfigParams)
    n_configs: int = 12
    n_trials: int = 30
    seed: Optional[int] = None
    trial_mode: str = "network"
    n_probes: int = 1
    #: Probe-set search: "exhaustive" or "greedy" (``repro-sdn select``).
    selection_method: str = "exhaustive"
    fault_plan: Optional[FaultPlan] = None
    probe_retries: int = 0
    trial_jobs: int = 1
    #: Robustness sweep grid (``None`` = the sweep's defaults).
    rates: Optional[Tuple[float, ...]] = None
    kinds: Optional[Tuple[str, ...]] = None
    #: Defend grid axes (``None`` = the grid's defaults): countermeasure
    #: names from :data:`repro.countermeasures.DEFENSE_CHOICES`, and the
    #: online detector method from :data:`repro.detect.DETECTOR_CHOICES`.
    defense: Optional[Tuple[str, ...]] = None
    detector: Optional[str] = None
    #: Reproduction scale (``None`` = the runner's default 0.1).
    scale: Optional[float] = None
    #: Service fields (docs/SERVICE.md): explicit target flow indices,
    #: or how many eligible targets to enumerate; worker shards; the
    #: job's identity (defaults to a digest prefix at submission).
    targets: Optional[Tuple[int, ...]] = None
    n_targets: int = 4
    shards: int = 1
    job_id: Optional[str] = None

    def __post_init__(self) -> None:
        # Tolerate JSON-shaped inputs (lists where tuples belong).
        for name in ("rates", "kinds", "targets", "defense"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment: {self.experiment!r} "
                f"(expected one of {', '.join(EXPERIMENTS)})"
            )
        if self.selection_method not in ("exhaustive", "greedy"):
            raise ValueError(
                f"unknown selection_method: {self.selection_method!r}"
            )
        if self.n_targets < 1:
            raise ValueError("n_targets must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.targets is not None:
            if not self.targets:
                raise ValueError("targets must be non-empty when given")
            object.__setattr__(
                self, "targets", tuple(int(t) for t in self.targets)
            )
            if any(t < 0 for t in self.targets):
                raise ValueError("targets must be non-negative flow indices")
        if self.scale is not None and self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.rates is not None:
            object.__setattr__(
                self, "rates", tuple(float(r) for r in self.rates)
            )
        if self.defense is not None:
            from repro.countermeasures.registry import DEFENSE_CHOICES

            object.__setattr__(
                self, "defense", tuple(str(d) for d in self.defense)
            )
            if not self.defense:
                raise ValueError("defense must be non-empty when given")
            unknown = sorted(set(self.defense) - set(DEFENSE_CHOICES))
            if unknown:
                raise ValueError(
                    f"unknown defense(s): {', '.join(unknown)} "
                    f"(expected from {', '.join(DEFENSE_CHOICES)})"
                )
            if self.trial_mode != "network":
                raise ValueError(
                    "defenses require network-mode trials "
                    f"(got trial_mode={self.trial_mode!r})"
                )
        if self.detector is not None:
            from repro.detect.detector import DETECTOR_CHOICES

            if self.detector not in DETECTOR_CHOICES:
                raise ValueError(
                    f"unknown detector: {self.detector!r} "
                    f"(expected one of {', '.join(DETECTOR_CHOICES)})"
                )
        # Everything ExperimentParams validates is validated here too.
        self.to_params()

    # ------------------------------------------------------------------
    # Experiment-layer bridge
    # ------------------------------------------------------------------
    def to_params(self) -> ExperimentParams:
        """The :class:`ExperimentParams` equivalent of this job."""
        return ExperimentParams(**_params_fields(self))

    @classmethod
    def from_params(
        cls, params: ExperimentParams, *, experiment: str = "fig6", **extra: object
    ) -> "JobSpec":
        """Wrap legacy :class:`ExperimentParams` into a job spec."""
        return cls(
            experiment=experiment,
            **_params_fields(params),
            **extra,  # type: ignore[arg-type]
        )

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON mapping; ``from_dict(to_dict())`` is the identity."""
        document: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "config":
                config = dict(value.__dict__)
                config["absence_range"] = list(value.absence_range)
                document["config"] = config
            elif spec_field.name == "fault_plan":
                document["fault_plan"] = (
                    value.to_dict() if value is not None else None
                )
            elif isinstance(value, tuple):
                document[spec_field.name] = list(value)
            else:
                document[spec_field.name] = value
        return document

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (JSON-safe).

        Documents and spool files written before the implementation
        selectors, the estimator, the selection fan-out and the fixed
        protocol settings were removed may still carry them; those keys
        are dropped here once their value is checked against the old
        values that still hold (see :data:`LEGACY_FIELDS`).
        """
        values = dict(document)
        for name, (expected, accepts) in LEGACY_FIELDS.items():
            if name in values and not accepts(values.pop(name)):
                raise ValueError(
                    f"invalid legacy JobSpec field {name}="
                    f"{document[name]!r} (expected {expected})"
                )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ValueError(f"unknown JobSpec field(s): {', '.join(unknown)}")
        config = values.get("config")
        if isinstance(config, dict):
            config = dict(config)
            if "absence_range" in config:
                config["absence_range"] = tuple(config["absence_range"])
            values["config"] = ConfigParams(**config)
        plan = values.get("fault_plan")
        if isinstance(plan, dict):
            values["fault_plan"] = FaultPlan.from_dict(plan)
        return cls(**values)  # type: ignore[arg-type]

    def digest(self) -> str:
        """A stable content digest of the job (identity-field free).

        ``job_id`` is excluded: two submissions of the same work share a
        digest regardless of what the submitter named them, which is how
        the service tells a resume (same digest) from an id collision.
        """
        document = self.to_dict()
        document.pop("job_id", None)
        canonical = json.dumps(document, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def with_job_id(self, job_id: str) -> "JobSpec":
        """Copy with the job identity set (service submission)."""
        return replace(self, job_id=str(job_id))

    # ------------------------------------------------------------------
    # CLI bridge
    # ------------------------------------------------------------------
    @classmethod
    def from_args(
        cls, args: argparse.Namespace, experiment: str
    ) -> "JobSpec":
        """Build a spec from a parsed CLI namespace.

        ``experiment`` is the subcommand name (figure variants collapse
        onto their runner).  Only flags the subcommand actually declares
        are consulted, so one constructor serves every subparser.
        """
        experiment = canonical_experiment(experiment)
        seed = getattr(args, "seed", None)
        if seed is None:
            seed = getattr(args, "seed_fallback", None)
        plan_spec = getattr(args, "fault_plan", None)
        fault_plan = FaultPlan.parse(plan_spec) if plan_spec else None
        flows = getattr(args, "flows", None)
        if flows is not None:
            config = ConfigParams(
                n_flows=flows,
                mask_bits=flows.bit_length() - 1,
                n_rules=getattr(args, "rules", 12),
                cache_size=getattr(args, "cache", 6),
            )
        else:
            config = ConfigParams()
        rates = getattr(args, "rates", None)
        kinds = getattr(args, "kinds", None)
        targets = getattr(args, "targets", None)
        defense = getattr(args, "defense", None)
        return cls(
            experiment=experiment,
            config=config,
            n_configs=getattr(args, "configs", 12),
            n_trials=getattr(args, "trials", 30),
            seed=int(seed) if seed is not None else None,
            trial_mode=getattr(args, "mode", "network"),
            n_probes=getattr(args, "probes", 1),
            selection_method=getattr(args, "method", "exhaustive"),
            fault_plan=fault_plan,
            probe_retries=getattr(args, "probe_retries", 0),
            trial_jobs=getattr(args, "trial_jobs", 1),
            rates=(
                tuple(float(part) for part in rates.split(","))
                if isinstance(rates, str)
                else rates
            ),
            kinds=(
                tuple(part.strip() for part in kinds.split(","))
                if isinstance(kinds, str)
                else kinds
            ),
            defense=(
                tuple(part.strip() for part in defense.split(","))
                if isinstance(defense, str)
                else defense
            ),
            detector=getattr(args, "detector", None),
            scale=getattr(args, "scale", None),
            targets=(
                tuple(int(part) for part in targets.split(","))
                if isinstance(targets, str)
                else targets
            ),
            n_targets=getattr(args, "n_targets", 4),
            shards=getattr(args, "shards", 1),
            job_id=getattr(args, "job_id", None),
        )


def require_spec(
    value: object, *, caller: str
) -> Tuple[JobSpec, ExperimentParams]:
    """The runners' input check: a :class:`JobSpec` and its params view.

    Anything else -- a bare ``ExperimentParams`` included, whose
    deprecation period has ended -- raises ``TypeError``;
    :meth:`JobSpec.from_params` wraps existing params.
    """
    if not isinstance(value, JobSpec):
        raise TypeError(
            f"{caller}: expected a JobSpec, got {type(value).__name__} "
            "(JobSpec.from_params wraps ExperimentParams)"
        )
    return value, value.to_params()
