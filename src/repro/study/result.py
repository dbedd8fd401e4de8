"""The one rich, schema-versioned answer type of the study facade.

Every question kind — a point estimate, a sweep, a Pareto frontier, a
fleet run — comes back as a :class:`StudyResult`: the headline number
(when there is one) with its uncertainty, the estimator that actually
ran (an ``engine="auto"`` scenario records what it resolved to), the
sampling diagnostics (trials, censoring, effective sample size), full
provenance (seed, scenario content hash, wall time), and a
question-specific ``details`` payload carrying the series, tables and
cross-checks the renderers consume.

Results serialise to JSON with an explicit ``schema`` version and load
tolerantly (unknown fields are ignored), following the durable-encoding
discipline of Gladney & Lorie's *Trustworthy 100-Year Digital Objects*:
an answer you archive today must still parse decades of schema
evolution later.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.simulation.estimators import MonteCarloEstimate

#: Version of the serialised :class:`StudyResult` layout.  Bump on any
#: breaking change to the field set; readers ignore unknown fields, so
#: additive evolution does not require a bump.
SCHEMA_VERSION = 1


def _finite_or_none(value: Optional[float]) -> Optional[float]:
    """Strict-JSON stand-in for infinities (e.g. a lossless MTTDL)."""
    if value is None:
        return None
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class StudyResult:
    """Everything one :func:`repro.study.run` call produced.

    Attributes:
        question: the scenario's question kind.
        engine: the engine the scenario requested.
        method: the estimator that actually ran (``auto`` resolves to
            ``standard``/``is``/``splitting``; deterministic engines
            record themselves).
        value: the headline estimate — MTTDL hours, a loss probability,
            the recommended design's loss probability (frontier
            questions with a query), the fleet loss fraction; ``None``
            for series-only answers and for non-finite estimates (a
            lossless MTTDL serialises as ``None``, with the observed
            time in ``details``).
        std_error: standard error of ``value`` (``None`` when exact).
        ci_low / ci_high: 95% confidence bounds, clamped to physical
            ranges.
        units: ``"hours"`` or ``"probability"`` (``""`` for series).
        trials / losses / censored: sampling diagnostics.
        effective_sample_size: Kish ESS of weighted estimates.
        seed: the root seed the run used.
        scenario_hash: content hash of the scenario (the cache key).
        wall_time_seconds: wall-clock cost of the run.
        schema: serialised-layout version (:data:`SCHEMA_VERSION`).
        warnings: estimator warnings (e.g. high censoring),
            deduplicated, verbatim.
        details: question-specific payload (series, frontier rows,
            curves, cross-check values, execution counters).  Runs with
            a caller-supplied telemetry registry also carry the
            registry's snapshot under ``details["telemetry"]`` (see
            :attr:`telemetry`).
    """

    question: str
    engine: str
    method: str
    value: Optional[float] = None
    std_error: Optional[float] = None
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    units: str = ""
    trials: int = 0
    losses: int = 0
    censored: int = 0
    effective_sample_size: Optional[float] = None
    seed: int = 0
    scenario_hash: str = ""
    wall_time_seconds: float = 0.0
    schema: int = SCHEMA_VERSION
    warnings: Tuple[str, ...] = ()
    details: Dict[str, object] = field(default_factory=dict)

    # -- interop with the Monte-Carlo layer --------------------------------

    @staticmethod
    def from_estimate(
        question: str,
        engine: str,
        estimate: MonteCarloEstimate,
        units: str,
        details: Optional[Dict[str, object]] = None,
    ) -> "StudyResult":
        """Wrap a :class:`MonteCarloEstimate` as a study result."""
        low, high = estimate.confidence_interval()
        return StudyResult(
            question=question,
            engine=engine,
            method=estimate.method,
            value=estimate.mean,
            std_error=estimate.std_error,
            ci_low=low,
            ci_high=high,
            units=units,
            trials=estimate.trials,
            losses=estimate.losses,
            censored=estimate.censored,
            effective_sample_size=estimate.effective_sample_size,
            details=details or {},
        )

    def estimate(self) -> MonteCarloEstimate:
        """The result as the Monte-Carlo layer's estimate type.

        This is the bridge the legacy shims
        (:func:`repro.simulation.monte_carlo.estimate_mttdl` and
        friends) return through — bit-for-bit the estimate the engine
        produced, including the physical clamps implied by ``units``.
        """
        value = math.inf if self.value is None else self.value
        std_error = math.inf if self.std_error is None else self.std_error
        return MonteCarloEstimate(
            mean=value,
            std_error=std_error,
            trials=self.trials,
            censored=self.censored,
            clamp_lo=0.0,
            clamp_hi=1.0 if self.units == "probability" else None,
            method=self.method,
            effective_sample_size=self.effective_sample_size,
        )

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "question": self.question,
            "engine": self.engine,
            "method": self.method,
            "value": _finite_or_none(self.value),
            "std_error": _finite_or_none(self.std_error),
            "ci_low": _finite_or_none(self.ci_low),
            "ci_high": _finite_or_none(self.ci_high),
            "units": self.units,
            "trials": self.trials,
            "losses": self.losses,
            "censored": self.censored,
            "effective_sample_size": _finite_or_none(
                self.effective_sample_size
            ),
            "seed": self.seed,
            "scenario_hash": self.scenario_hash,
            "wall_time_seconds": self.wall_time_seconds,
            "warnings": list(self.warnings),
            "details": self.details,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "StudyResult":
        """Rebuild a result, ignoring unknown fields (forward compat)."""

        def _opt_float(key: str) -> Optional[float]:
            value = payload.get(key)
            return None if value is None else float(value)

        return StudyResult(
            question=str(payload["question"]),
            engine=str(payload.get("engine", "auto")),
            method=str(payload.get("method", "")),
            value=_opt_float("value"),
            std_error=_opt_float("std_error"),
            ci_low=_opt_float("ci_low"),
            ci_high=_opt_float("ci_high"),
            units=str(payload.get("units", "")),
            trials=int(payload.get("trials", 0)),
            losses=int(payload.get("losses", 0)),
            censored=int(payload.get("censored", 0)),
            effective_sample_size=_opt_float("effective_sample_size"),
            seed=int(payload.get("seed", 0)),
            scenario_hash=str(payload.get("scenario_hash", "")),
            wall_time_seconds=float(payload.get("wall_time_seconds", 0.0)),
            schema=int(payload.get("schema", SCHEMA_VERSION)),
            warnings=tuple(str(w) for w in payload.get("warnings", ())),
            details=dict(payload.get("details", {})),
        )

    def to_json(self, path: Optional[Union[str, Path]] = None) -> str:
        """Serialise; also writes to ``path`` when given."""
        text = json.dumps(self.as_dict(), indent=2, sort_keys=True)
        if path is not None:
            Path(path).write_text(text, encoding="utf-8")
        return text

    @staticmethod
    def from_json(source: Union[str, Path]) -> "StudyResult":
        """Load from a JSON string or a path to a JSON file."""
        if isinstance(source, Path) or (
            isinstance(source, str) and not source.lstrip().startswith("{")
        ):
            text = Path(source).read_text(encoding="utf-8")
        else:
            text = source
        return StudyResult.from_dict(json.loads(text))

    @property
    def telemetry(self) -> Optional[Dict[str, object]]:
        """The run's telemetry snapshot, when one was recorded.

        Present only when the caller passed a live registry to
        :func:`repro.study.run` via ``telemetry=``; rebuild the typed
        form with ``repro.obs.TelemetrySnapshot.from_dict(...)``.
        """
        payload = self.details.get("telemetry")
        return payload if isinstance(payload, dict) else None

    @property
    def cache_key(self) -> str:
        """The mergeable content-hash key this answer caches under.

        The scenario's content hash — the same SHA-256-over-canonical-
        JSON recipe as the optimizer's refinement cache and the fleet
        chunk cache, so one directory can hold all three side by side.
        """
        return self.scenario_hash
