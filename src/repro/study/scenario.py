"""Declarative, JSON-roundtrippable reliability-study specifications.

A :class:`Scenario` is the single way to pose a question to the toolkit:
*what system* (a :class:`SystemSpec`, a planner
:class:`~repro.optimize.space.DesignSpace`, or a fleet
:class:`~repro.fleet.timeline.FleetTimeline`), *which question*
(:data:`QUESTIONS`), and *how hard to work on the answer* (an
:class:`EstimatorPolicy`).  Scenarios are plain data — they serialise to
JSON (``to_json`` / ``from_json``, tolerant of unknown fields so newer
writers can talk to older readers), carry a content hash compatible with
the optimize/fleet result caches, and are everything a future service
tier needs to accept over the wire.

The facade's entry point is :func:`repro.study.run`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.core.parameters import (
    PARAMETER_FIELDS,
    FaultModel,
    json_boolean,
    json_integer,
    json_number,
    json_required,
    json_string,
)
from repro.core.redundancy import RedundancyScheme, parse_scheme
from repro.fleet.runner import DEFAULT_CHUNK_SIZE
from repro.fleet.timeline import FleetTimeline, _json_items, _json_object
from repro.optimize.evaluate import DEFAULT_SCREEN_SLACK
from repro.optimize.space import (
    PLACEMENTS,
    DesignSpace,
    known_media,
    resolve_medium,
)
from repro.simulation.estimators import VARIANCE_REDUCTIONS
from repro.store import content_key

#: The five question kinds the facade answers.
QUESTIONS: Tuple[str, ...] = (
    "mttdl",
    "loss_probability",
    "frontier",
    "fleet_survival",
    "sweep",
)

#: Recognised estimation engines.  ``auto`` answers a threshold-2
#: question by the control variate where that finishes first, and
#: otherwise pilots on the vectorized batch backend and escalates to
#: importance sampling (cross-checking the closed forms and the Markov
#: chain when that is cheap);
#: ``analytic`` and ``markov`` are deterministic; ``event``/``batch``
#: force a plain Monte-Carlo backend; ``is`` forces importance
#: sampling; ``fleet`` is the chunked fleet-population simulator.
ENGINES: Tuple[str, ...] = (
    "auto",
    "analytic",
    "markov",
    "event",
    "batch",
    "is",
    "fleet",
)

#: Engines that resolve to a (backend, method) pair of the shared
#: Monte-Carlo estimators in :mod:`repro.simulation.estimators`.
_ENGINE_BACKEND_METHOD: Dict[str, Tuple[str, str]] = {
    "auto": ("batch", "auto"),
    "batch": ("batch", "standard"),
    "event": ("event", "standard"),
    "is": ("batch", "is"),
}

#: Engines a sweep question accepts (markov and fleet make no sense per
#: sweep point).
SWEEP_ENGINES: Tuple[str, ...] = ("auto", "analytic", "batch", "event", "is")

#: Engines a frontier question accepts (mapped onto
#: :class:`~repro.optimize.evaluate.EvaluationSettings`).
FRONTIER_ENGINES: Tuple[str, ...] = ("auto", "analytic", "batch", "event", "is")

#: Sweepable parameters: the FaultModel fields, ``audits_per_year`` and
#: ``replicas``.
SWEEP_PARAMETERS: Tuple[str, ...] = tuple(sorted(PARAMETER_FIELDS)) + (
    "audits_per_year",
    "replicas",
)

#: Metrics a sweep reports.
SWEEP_METRICS: Tuple[str, ...] = ("mttdl", "loss_probability")


def engine_for(backend: str, method: str) -> Optional[str]:
    """Map a ``(backend, method)`` pair (the CLI's flags) onto an engine.

    Returns ``None`` for combinations the single-axis engine vocabulary
    does not encode (including invalid values — the shared estimators
    own the canonical error for those).
    """
    if method == "is":
        return "is" if backend in ("event", "batch") else None
    if method == "standard" and backend in ("event", "batch"):
        return backend
    if method == "auto" and backend == "batch":
        return "auto"
    return None


def engine_backend_method(engine: str) -> Tuple[str, str]:
    """The (backend, method) pair a stochastic engine resolves to."""
    try:
        return _ENGINE_BACKEND_METHOD[engine]
    except KeyError:
        raise ValueError(
            f"engine {engine!r} has no Monte-Carlo backend/method mapping"
        ) from None


def _json_choice(value: object, path: str, choices: Tuple[str, ...]) -> str:
    """``value`` when it is a JSON string among ``choices``; otherwise a
    ``ValueError`` naming its JSON ``path`` (and the choices)."""
    text = json_string(value, path)
    if text not in choices:
        raise ValueError(f"'{path}' must be one of {choices}, not {text!r}")
    return text


def _optional(payload: Dict[str, object], key: str, path: str, read):
    """``read(payload[key], path)``; ``None`` when absent or null."""
    value = payload.get(key)
    return None if value is None else read(value, path)


def _section(
    payload: Dict[str, object], key: str, path: Optional[str] = None
) -> Optional[Dict[str, object]]:
    """The JSON object at ``payload[key]``; ``None`` when absent or null.

    A present value that is not an object raises a ``ValueError`` naming
    its JSON path (``path``, default ``key``), so a malformed request
    fails with a message instead of an ``AttributeError`` deep inside a
    ``from_dict``.  An empty object is present: its own required fields
    then fail by name.
    """
    value = payload.get(key)
    return None if value is None else _json_object(value, path or key)


def _medium(value: object, path: str) -> str:
    """A catalog medium identifier (see
    :func:`~repro.optimize.space.resolve_medium`), or a ``ValueError``
    naming ``path`` and the known media."""
    text = json_string(value, path)
    try:
        resolve_medium(text)
    except KeyError:
        raise ValueError(
            f"'{path}' must be one of {known_media()}, not {text!r}"
        ) from None
    return text


def _scheme_text(value: object, path: str) -> str:
    """An ``"n,k"`` (or ``"r"``) scheme string, or a ``ValueError``
    naming ``path``."""
    text = json_string(value, path)
    try:
        parse_scheme(text)
    except ValueError as exc:
        raise ValueError(f"'{path}': {exc}") from None
    return text


def _space_from_dict(value: object, path: str) -> DesignSpace:
    """The :class:`DesignSpace` of a JSON object; every field that is
    omitted (or null) takes the dataclass default, and a present field
    of the wrong type fails with its JSON path."""
    payload = _json_object(value, path)
    defaults = DesignSpace()

    def items(key: str, read) -> tuple:
        return _json_items(
            payload, key, f"{path}.{key}", read, list(getattr(defaults, key))
        )

    def number(key: str) -> float:
        given = payload.get(key)
        return json_number(
            getattr(defaults, key) if given is None else given,
            f"{path}.{key}",
        )

    return DesignSpace(
        dataset_tb=number("dataset_tb"),
        media=items("media", _medium),
        replica_counts=items("replica_counts", json_integer),
        audit_rates=items("audit_rates", json_number),
        placements=items(
            "placements",
            lambda item, item_path: _json_choice(item, item_path, PLACEMENTS),
        ),
        site_cost_per_year=number("site_cost_per_year"),
        erasure_schemes=items("erasure_schemes", _scheme_text),
    )


@dataclass(frozen=True)
class SystemSpec:
    """The replicated system a point-estimate or sweep question is about.

    Attributes:
        model: per-replica fault parameters (paper notation).
        replicas: replication degree.
        audits_per_year: overrides the model-derived audit grid in the
            simulators (and folds into ``MDL`` for the closed forms,
            matching :func:`repro.analysis.sweep.audit_adjusted_model`).
        scheme: optional (n, k) redundancy scheme; when set, ``replicas``
            is forced to the fragment count ``n`` and data is lost at
            ``n - k + 1`` simultaneous faults instead of ``n``.  ``None``
            keeps plain r-way replication (and the historical
            serialisation, so existing content hashes are unchanged).
    """

    model: FaultModel
    replicas: int = 2
    audits_per_year: Optional[float] = None
    scheme: Optional[RedundancyScheme] = None

    def __post_init__(self) -> None:
        if self.scheme is not None:
            object.__setattr__(self, "replicas", self.scheme.n)
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.audits_per_year is not None and self.audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "model": self.model.as_dict(),
            "replicas": self.replicas,
            "audits_per_year": self.audits_per_year,
        }
        # Conditional so replication scenarios hash exactly as before.
        if self.scheme is not None:
            payload["scheme"] = self.scheme.as_dict()
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SystemSpec":
        scheme = payload.get("scheme")
        model = _section(payload, "model", "system.model")
        if model is None:
            raise ValueError("'system.model' is required")
        return SystemSpec(
            model=FaultModel.from_dict(model, "system.model"),
            replicas=json_integer(
                payload.get("replicas", 2), "system.replicas"
            ),
            audits_per_year=_optional(
                payload, "audits_per_year", "system.audits_per_year",
                json_number,
            ),
            scheme=(
                RedundancyScheme.from_dict(
                    _json_object(scheme, "system.scheme"), "system.scheme"
                )
                if scheme is not None
                else None
            ),
        )

    def effective_scheme(self) -> RedundancyScheme:
        """The scheme in force (plain replication when unset)."""
        if self.scheme is not None:
            return self.scheme
        return RedundancyScheme(n=self.replicas, k=1)


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis of a ``question="sweep"`` scenario.

    Attributes:
        parameter: a :class:`FaultModel` field (``MV``/``ML``/``MRV``/
            ``MRL``/``MDL``/``alpha``), ``audits_per_year``, or
            ``replicas`` (analytic Eq. 12 sweep).
        values: the swept values, in order.
        metric: ``"mttdl"`` or ``"loss_probability"`` (simulated sweeps
            of model parameters only).
        correlation_factors: the ``α`` series of a ``replicas`` sweep.
    """

    parameter: str
    values: Tuple[float, ...]
    metric: str = "mttdl"
    correlation_factors: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        _json_choice(self.parameter, "sweep.parameter", SWEEP_PARAMETERS)
        if not self.values:
            raise ValueError("sweep values must not be empty")
        _json_choice(self.metric, "sweep.metric", SWEEP_METRICS)
        if self.parameter == "replicas" and not self.correlation_factors:
            object.__setattr__(self, "correlation_factors", (1.0,))

    def as_dict(self) -> Dict[str, object]:
        return {
            "parameter": self.parameter,
            "values": list(self.values),
            "metric": self.metric,
            "correlation_factors": list(self.correlation_factors),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SweepSpec":
        return SweepSpec(
            parameter=json_string(
                json_required(payload, "parameter", "sweep.parameter"),
                "sweep.parameter",
            ),
            values=_json_items(payload, "values", "sweep.values", json_number),
            metric=json_string(payload.get("metric", "mttdl"), "sweep.metric"),
            correlation_factors=_json_items(
                payload, "correlation_factors", "sweep.correlation_factors",
                json_number, [],
            ),
        )


@dataclass(frozen=True)
class EstimatorPolicy:
    """How hard (and how) to work on a scenario's answer.

    Attributes:
        engine: one of :data:`ENGINES`.
        trials: Monte-Carlo trials per chunk (per refined candidate for
            frontier questions; ignored by deterministic engines).
        max_trials: hard adaptive-sampling budget (default: 64 chunks).
        target_relative_error: adaptive sampling target; chunks keep
            extending until the standard error falls below this fraction
            of the mean.
        seed: root random seed; all child seeds spawn deterministically.
        bias: failure-biasing override for importance sampling (point
            estimates and sweeps; frontier questions reject one).
        cross_check: under ``engine="auto"``, attach the closed-form and
            Markov-chain answers to the result's details whenever they
            are cheap to compute (mirrored pairs).
        variance_reduction: one of
            :data:`repro.simulation.estimators.VARIANCE_REDUCTIONS` —
            ``"none"`` (default) or ``"cv"`` (conditional-Monte-Carlo
            control variate).  ``"cv"`` requires the plain batch engine
            (``engine="batch"``); it replaces the sampling scheme rather
            than composing with ``is``.
    """

    engine: str = "auto"
    trials: int = 1000
    max_trials: Optional[int] = None
    target_relative_error: Optional[float] = None
    seed: int = 0
    bias: Optional[float] = None
    cross_check: bool = True
    variance_reduction: str = "none"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.max_trials is not None and self.max_trials < self.trials:
            raise ValueError("max_trials must be at least the initial trial count")
        if (
            self.target_relative_error is not None
            and self.target_relative_error <= 0
        ):
            raise ValueError("target_relative_error must be positive")
        # Membership is validated here; the full compatibility rules
        # (batch backend, standard method, no bias) live with the shared
        # estimators, which also own the canonical error messages.
        if self.variance_reduction not in VARIANCE_REDUCTIONS:
            raise ValueError(
                f"unknown variance_reduction {self.variance_reduction!r}; "
                f"expected one of {VARIANCE_REDUCTIONS}"
            )
        if self.variance_reduction != "none" and self.engine != "batch":
            raise ValueError(
                "variance_reduction requires the plain batch engine "
                "(engine='batch')"
            )

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "engine": self.engine,
            "trials": self.trials,
            "max_trials": self.max_trials,
            "target_relative_error": self.target_relative_error,
            "seed": self.seed,
            "bias": self.bias,
            "cross_check": self.cross_check,
        }
        # Conditional so pre-existing policies hash exactly as before.
        if self.variance_reduction != "none":
            payload["variance_reduction"] = self.variance_reduction
        return payload

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "EstimatorPolicy":
        return EstimatorPolicy(
            engine=_json_choice(
                payload.get("engine", "auto"), "policy.engine", ENGINES
            ),
            trials=json_integer(payload.get("trials", 1000), "policy.trials"),
            max_trials=_optional(
                payload, "max_trials", "policy.max_trials", json_integer
            ),
            target_relative_error=_optional(
                payload, "target_relative_error",
                "policy.target_relative_error", json_number,
            ),
            seed=json_integer(payload.get("seed", 0), "policy.seed"),
            bias=_optional(payload, "bias", "policy.bias", json_number),
            cross_check=json_boolean(
                payload.get("cross_check", True), "policy.cross_check"
            ),
            variance_reduction=_json_choice(
                payload.get("variance_reduction", "none"),
                "policy.variance_reduction",
                VARIANCE_REDUCTIONS,
            ),
        )


@dataclass(frozen=True)
class Scenario:
    """One complete, serialisable reliability question.

    Attributes:
        question: one of :data:`QUESTIONS`.
        system: the replicated system (``mttdl`` / ``loss_probability``
            / ``sweep`` questions).
        mission_years: mission length for loss probabilities.
        max_time_hours: censoring horizon for MTTDL estimation
            (default: engine-chosen).
        sweep: the swept axis (``sweep`` questions).
        space: the planner design space (``frontier`` questions).
        budget: annual budget for the frontier recommendation query.
        target_loss: loss-probability target for the recommendation.
        slack: analytic screening slack (``frontier`` questions).
        timeline: the fleet plan (``fleet_survival`` questions).
        members: fleet size.
        chunk_size: members per fleet chunk (default
            :data:`repro.fleet.runner.DEFAULT_CHUNK_SIZE`, 10,000).  The
            partition decides each chunk's random stream, so a fleet's
            answer depends on it (and not on ``jobs``); scenarios that
            carry an explicit size keep reproducing their answers.
        policy: the :class:`EstimatorPolicy`.
        label: optional human-readable name carried into results.
    """

    question: str
    system: Optional[SystemSpec] = None
    mission_years: float = 50.0
    max_time_hours: Optional[float] = None
    sweep: Optional[SweepSpec] = None
    space: Optional[DesignSpace] = None
    budget: Optional[float] = None
    target_loss: Optional[float] = None
    slack: float = DEFAULT_SCREEN_SLACK
    timeline: Optional[FleetTimeline] = None
    members: int = 2000
    chunk_size: int = DEFAULT_CHUNK_SIZE
    policy: EstimatorPolicy = field(default_factory=EstimatorPolicy)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if self.question not in QUESTIONS:
            raise ValueError(
                f"unknown question {self.question!r}; expected one of "
                f"{QUESTIONS}"
            )
        if self.mission_years <= 0:
            raise ValueError("mission_years must be positive")
        engine = self.policy.engine
        if self.question in ("mttdl", "loss_probability"):
            if self.system is None:
                raise ValueError(
                    f"question {self.question!r} needs a SystemSpec"
                )
            if engine == "fleet":
                raise ValueError(
                    "engine 'fleet' answers fleet_survival questions only"
                )
            if engine == "markov" and not (
                self.system.replicas == 2
                and self.system.effective_scheme().is_replication
            ):
                raise ValueError(
                    "the markov engine evaluates mirrored pairs "
                    "(replicas=2) only"
                )
        elif self.question == "sweep":
            if self.system is None or self.sweep is None:
                raise ValueError(
                    "question 'sweep' needs a SystemSpec and a SweepSpec"
                )
            if engine not in SWEEP_ENGINES:
                raise ValueError(
                    f"engine {engine!r} cannot answer sweeps; expected one "
                    f"of {SWEEP_ENGINES}"
                )
            if self.sweep.parameter == "replicas" and engine != "analytic":
                raise ValueError(
                    "the replicas sweep is analytic (Eq. 12); use "
                    "engine='analytic'"
                )
        elif self.question == "frontier":
            if self.space is None:
                raise ValueError("question 'frontier' needs a DesignSpace")
            if engine not in FRONTIER_ENGINES:
                raise ValueError(
                    f"engine {engine!r} cannot search frontiers; expected "
                    f"one of {FRONTIER_ENGINES}"
                )
            if self.policy.variance_reduction != "none":
                raise ValueError(
                    "'policy.variance_reduction' must be 'none' for "
                    "frontier questions: the planner's refinements do not "
                    "take one"
                )
            if self.policy.bias is not None:
                raise ValueError(
                    "'policy.bias' must be unset for frontier questions: "
                    "the planner's refinements do not take one"
                )
        elif self.question == "fleet_survival":
            if self.timeline is None:
                raise ValueError(
                    "question 'fleet_survival' needs a FleetTimeline"
                )
            if engine not in ("auto", "fleet"):
                raise ValueError(
                    "fleet_survival questions run on the fleet engine "
                    "(engine='fleet' or 'auto')"
                )
            if self.members <= 0:
                raise ValueError("members must be positive")
            if self.chunk_size <= 0:
                raise ValueError("chunk_size must be positive")
        if self.slack < 1.0:
            raise ValueError("slack must be at least 1")
        if self.max_time_hours is not None and self.max_time_hours <= 0:
            raise ValueError("max_time_hours must be positive")

    # -- evolution ---------------------------------------------------------

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "question": self.question,
            "label": self.label,
            "system": self.system.as_dict() if self.system else None,
            "mission_years": self.mission_years,
            "max_time_hours": self.max_time_hours,
            "sweep": self.sweep.as_dict() if self.sweep else None,
            "space": self.space.as_dict() if self.space else None,
            "budget": self.budget,
            "target_loss": self.target_loss,
            "slack": self.slack,
            "timeline": self.timeline.as_dict() if self.timeline else None,
            "members": self.members,
            "chunk_size": self.chunk_size,
            "policy": self.policy.as_dict(),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario, ignoring unknown fields.

        Unknown top-level (and policy-level) keys are tolerated so
        results written by a newer version of the toolkit remain
        loadable — forward compatibility for the serialised form.
        """

        def _parsed(key: str, parse):
            section = _section(payload, key)
            return None if section is None else parse(section)

        def _number(key: str) -> Optional[float]:
            return _optional(payload, key, key, json_number)

        label = payload.get("label")
        return Scenario(
            question=_json_choice(
                json_required(payload, "question", "question"),
                "question",
                QUESTIONS,
            ),
            system=_parsed("system", SystemSpec.from_dict),
            mission_years=json_number(
                payload.get("mission_years", 50.0), "mission_years"
            ),
            max_time_hours=_number("max_time_hours"),
            sweep=_parsed("sweep", SweepSpec.from_dict),
            space=_optional(payload, "space", "space", _space_from_dict),
            budget=_number("budget"),
            target_loss=_number("target_loss"),
            slack=json_number(
                payload.get("slack", DEFAULT_SCREEN_SLACK), "slack"
            ),
            timeline=_parsed("timeline", FleetTimeline.from_dict),
            members=json_integer(payload.get("members", 2000), "members"),
            chunk_size=json_integer(
                payload.get("chunk_size", DEFAULT_CHUNK_SIZE), "chunk_size"
            ),
            policy=EstimatorPolicy.from_dict(
                _section(payload, "policy") or {}
            ),
            label=None if label is None else str(label),
        )

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise; also writes to ``path`` when given."""
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @staticmethod
    def from_json(source: Union[str, Path]) -> "Scenario":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return Scenario.from_dict(json.loads(text))

    def content_hash(self) -> str:
        """Hex digest identifying the full scenario, under the store's
        one key recipe (:func:`repro.store.content_key`)."""
        return content_key(self.as_dict())
