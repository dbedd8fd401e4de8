"""The engine dispatcher behind :func:`repro.study.run`.

One entry point answers every question kind by routing a declarative
:class:`~repro.study.scenario.Scenario` to the right machinery:

* point estimates (``mttdl`` / ``loss_probability``) — the closed
  forms, the exact Markov chain, or the shared Monte-Carlo loops in
  :mod:`repro.simulation.estimators` (which own the
  pilot → censoring-check → rare-event escalation that used to be
  duplicated across front ends);
* ``sweep`` — the analytic sweeps of :mod:`repro.analysis.sweep` or
  their simulation-backed counterparts;
* ``frontier`` — the budget planner
  (:func:`repro.optimize.runner.optimize` + ``recommend``);
* ``fleet_survival`` — the chunked fleet simulator
  (:func:`repro.fleet.runner.simulate_fleet`).

Under ``engine="auto"`` with a mirrored pair, the dispatcher also
cross-checks the Monte-Carlo answer against the closed forms and the
exact CTMC (both cost microseconds next to any simulation) and records
the comparison in the result's details.

Estimator warnings (e.g. :class:`HighCensoringWarning`) are captured
into ``StudyResult.warnings`` *and* re-emitted — deduplicated first, so
a pilot loop that trips the same censoring warning chunk after chunk
surfaces it once, not once per chunk.

Observability: every run executes inside a :mod:`repro.obs` telemetry
session.  By default that session holds the no-op registry (near-zero
overhead); passing ``telemetry=`` hands in a caller-owned registry
(optionally wired to a JSONL :class:`~repro.obs.trace.TraceWriter`
flight recorder) whose full snapshot — including the top-level
``setup`` / ``kernel`` / ``merge`` spans — lands in
``result.details["telemetry"]``.
"""

from __future__ import annotations

import time
import warnings as _warnings
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import obs
from repro.analysis.compare import compare_models
from repro.analysis.sweep import (
    SweepResult,
    audit_adjusted_model,
    sweep_audit_rate,
    sweep_parameter,
)
from repro.core.mttdl import mirrored_mttdl
from repro.core.replication import replicated_mttdl
from repro.core.probability import probability_of_loss
from repro.core.sensitivity import PARAMETER_FIELDS
from repro.core.units import HOURS_PER_YEAR, years_to_hours
from repro.fleet.runner import simulate_fleet
from repro.markov.builders import mirrored_mttdl_markov
from repro.optimize.evaluate import EvaluationSettings, screen_mttdl_hours
from repro.optimize.frontier import recommend
from repro.optimize.runner import optimize
from repro.simulation.estimators import (
    HighCensoringWarning,
    MonteCarloEstimate,
    run_loss_probability,
    run_mttdl,
)
from repro.study.result import StudyResult
from repro.study.scenario import Scenario, engine_backend_method


def run(
    scenario: Scenario,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    telemetry: Optional[obs.Telemetry] = None,
) -> StudyResult:
    """Answer a scenario and return its provenance-carrying result.

    Args:
        scenario: the declarative question (see
            :class:`~repro.study.scenario.Scenario`).
        jobs: worker processes for the engines that parallelise
            (frontier refinement, fleet chunks); single-system
            estimators run in-process regardless.
        cache_dir: directory for the content-hash result caches of the
            parallel engines; ``None`` disables caching.
        telemetry: a caller-owned :class:`repro.obs.Telemetry` registry
            to record the run into.  The registry's snapshot is attached
            as ``result.details["telemetry"]``, and — when the registry
            carries a :class:`~repro.obs.trace.TraceWriter` — the run
            emits flight-recorder events (``study_start``,
            ``engine_resolved``, ``pilot_round``, ``escalation``,
            ``estimate``, ``cache``, ``chunk``, ``study_end``).
            ``None`` (the default) runs against the no-op registry;
            results are bit-identical either way.

    Raises:
        ValueError: for invalid runtime knobs or infeasible frontier
            queries (no design fits the budget / reaches the target).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    tel = obs.NULL if telemetry is None else telemetry
    scenario_hash = scenario.content_hash()
    start = time.perf_counter()
    with obs.session(tel), _warnings.catch_warnings(record=True) as caught:
        _warnings.simplefilter("always")
        if tel.enabled:
            tel.event(
                "study_start",
                data={
                    "question": scenario.question,
                    "engine": scenario.policy.engine,
                    "seed": scenario.policy.seed,
                    "content_hash": scenario_hash,
                    "jobs": jobs,
                },
            )
        if scenario.question in ("mttdl", "loss_probability"):
            result = _run_point_estimate(scenario)
        elif scenario.question == "sweep":
            result = _run_sweep(scenario)
        elif scenario.question == "frontier":
            result = _run_frontier(scenario, jobs, cache_dir)
        else:
            result = _run_fleet(scenario, jobs, cache_dir)
    # Deduplicate before surfacing: adaptive pilot loops can trip the
    # same warning chunk after chunk, and repeating it adds noise, not
    # information.  First occurrence order is preserved.
    seen = set()
    unique = []
    notes: List[str] = []
    for entry in caught:
        key = (entry.category, str(entry.message))
        if key in seen:
            continue
        seen.add(key)
        unique.append(entry)
        if issubclass(entry.category, HighCensoringWarning):
            notes.append(str(entry.message))
    for entry in unique:
        # Re-emit everything (including the censoring notes): the
        # facade must not silently swallow warning semantics callers
        # and tests rely on.
        _warnings.warn_explicit(
            entry.message, entry.category, entry.filename, entry.lineno
        )
    wall_time = time.perf_counter() - start
    details = result.details
    if tel.enabled:
        snapshot = tel.snapshot()
        tel.event(
            "study_end",
            data={
                "question": result.question,
                "engine": result.engine,
                "method": result.method,
                "trials": result.trials,
                "warnings": len(notes),
            },
            timing={
                "total_seconds": wall_time,
                "spans": {
                    path: seconds
                    for path, (_, seconds) in snapshot.spans.items()
                },
            },
        )
        # Snapshot again so the payload includes the study_end event
        # count itself.
        details = dict(details, telemetry=tel.snapshot().as_dict())
    return replace(
        result,
        seed=scenario.policy.seed,
        scenario_hash=scenario_hash,
        wall_time_seconds=wall_time,
        warnings=tuple(notes),
        details=details,
    )


# ---------------------------------------------------------------------------
# Point estimates
# ---------------------------------------------------------------------------


def _analytic_mttdl_hours(scenario: Scenario) -> tuple:
    """(mttdl_hours, convention) under the closed forms."""
    spec = scenario.system
    adjusted = audit_adjusted_model(spec.model, spec.audits_per_year)
    if spec.replicas == 2 and spec.effective_scheme().is_replication:
        return mirrored_mttdl(adjusted), "paper"
    if spec.replicas < 2:
        raise ValueError(
            "the analytic engine needs at least two replicas"
        )
    # (n, k) generalisation in simulator-consistent semantics (chained
    # residual windows); the paper's Eq. 12 ignores latent faults.
    return (
        screen_mttdl_hours(adjusted, spec.replicas, scheme=spec.scheme),
        "simulator",
    )


def _run_point_estimate(scenario: Scenario) -> StudyResult:
    tel = obs.current()
    spec = scenario.system
    policy = scenario.policy
    question = scenario.question
    mission_hours = years_to_hours(scenario.mission_years)

    if policy.engine == "analytic":
        mttdl_hours, convention = _analytic_mttdl_hours(scenario)
        return _deterministic_result(
            scenario, mttdl_hours, {"convention": convention}
        )

    if policy.engine == "markov":
        adjusted = audit_adjusted_model(spec.model, spec.audits_per_year)
        mttdl_hours = mirrored_mttdl_markov(
            adjusted, double_first_fault_rate=True
        )
        details = {
            "convention": "simulator",
            # The full E11 cross-validation table (years): the paper's
            # closed forms next to both CTMC conventions.
            "methods_mttdl_years": compare_models(adjusted).in_years(),
        }
        return _deterministic_result(scenario, mttdl_hours, details)

    with tel.span("setup"):
        backend, method = engine_backend_method(policy.engine)
    if tel.enabled:
        tel.event(
            "engine_resolved",
            data={
                "engine": policy.engine,
                "backend": backend,
                "method": method,
                "question": question,
            },
        )
    with tel.span("kernel"):
        if question == "mttdl":
            estimate = run_mttdl(
                model=spec.model,
                trials=policy.trials,
                seed=policy.seed,
                max_time=scenario.max_time_hours,
                replicas=spec.replicas,
                audits_per_year=spec.audits_per_year,
                scheme=spec.scheme,
                backend=backend,
                target_relative_error=policy.target_relative_error,
                max_trials=policy.max_trials,
                method=method,
                bias=policy.bias,
                variance_reduction=policy.variance_reduction,
            )
            units = "hours"
        else:
            estimate = run_loss_probability(
                model=spec.model,
                mission_time=mission_hours,
                trials=policy.trials,
                seed=policy.seed,
                replicas=spec.replicas,
                audits_per_year=spec.audits_per_year,
                scheme=spec.scheme,
                backend=backend,
                target_relative_error=policy.target_relative_error,
                max_trials=policy.max_trials,
                method=method,
                bias=policy.bias,
                variance_reduction=policy.variance_reduction,
            )
            units = "probability"
    with tel.span("merge"):
        details: Dict[str, object] = {}
        if (
            policy.engine == "auto"
            and policy.cross_check
            and spec.replicas == 2
            and spec.effective_scheme().is_replication
        ):
            details["cross_check"] = _cross_check(scenario, estimate)
        return StudyResult.from_estimate(
            question, policy.engine, estimate, units, details
        )


def _deterministic_result(
    scenario: Scenario, mttdl_hours: float, details: Dict[str, object]
) -> StudyResult:
    """Package a closed-form / CTMC MTTDL as the scenario's answer."""
    mission_hours = years_to_hours(scenario.mission_years)
    loss = probability_of_loss(mttdl_hours, mission_hours)
    details = dict(details)
    details.update(
        {
            "mttdl_hours": mttdl_hours,
            "mttdl_years": mttdl_hours / HOURS_PER_YEAR,
            "loss_probability": loss,
            "mission_years": scenario.mission_years,
        }
    )
    if scenario.question == "mttdl":
        value, units = mttdl_hours, "hours"
    else:
        value, units = loss, "probability"
    return StudyResult(
        question=scenario.question,
        engine=scenario.policy.engine,
        method=scenario.policy.engine,
        value=value,
        std_error=0.0,
        ci_low=value,
        ci_high=value,
        units=units,
        details=details,
    )


def _cross_check(
    scenario: Scenario, estimate: MonteCarloEstimate
) -> Dict[str, object]:
    """Closed-form and CTMC answers next to the Monte-Carlo estimate.

    Only computed for mirrored pairs, where both are microsecond-cheap.
    The ``simulator`` entries use the simulator-consistent loss-rate
    convention (both replicas may open a window of vulnerability), so
    they — not the paper-convention closed form — are the apples-to-
    apples comparison for the simulated estimate.
    """
    spec = scenario.system
    adjusted = audit_adjusted_model(spec.model, spec.audits_per_year)
    paper_hours = mirrored_mttdl(adjusted)
    simulator_hours = screen_mttdl_hours(adjusted, 2)
    markov_hours = mirrored_mttdl_markov(adjusted, double_first_fault_rate=True)
    check: Dict[str, object] = {
        "analytic_paper_mttdl_hours": paper_hours,
        "analytic_simulator_mttdl_hours": simulator_hours,
        "markov_mttdl_hours": markov_hours,
    }
    if scenario.question == "loss_probability":
        mission_hours = years_to_hours(scenario.mission_years)
        check["analytic_simulator_loss_probability"] = probability_of_loss(
            simulator_hours, mission_hours
        )
        check["markov_loss_probability"] = probability_of_loss(
            markov_hours, mission_hours
        )
    return check


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _run_sweep(scenario: Scenario) -> StudyResult:
    spec = scenario.sweep
    system = scenario.system
    policy = scenario.policy

    if spec.parameter == "replicas":
        # Evaluate exactly the requested degrees (Eq. 12 per point), not
        # a dense 1..max grid — the result's values must mirror the
        # scenario's.
        degrees = [int(v) for v in spec.values]
        if any(degree < 1 for degree in degrees):
            raise ValueError("replica degrees must be at least 1")
        series: Dict[str, Dict[str, List[float]]] = {}
        for alpha in spec.correlation_factors:
            hours = [
                replicated_mttdl(
                    system.model.mean_time_to_visible,
                    system.model.mean_repair_visible,
                    degree,
                    alpha,
                )
                for degree in degrees
            ]
            series[f"{alpha:g}"] = {
                "mttdl_hours": hours,
                "mttdl_years": [h / HOURS_PER_YEAR for h in hours],
            }
        details = {
            "parameter": "replicas",
            "metric": spec.metric,
            "values": [float(degree) for degree in degrees],
            "series": series,
        }
        return _sweep_result(scenario, "analytic", details)

    if policy.engine == "analytic":
        if spec.parameter == "audits_per_year":
            if spec.metric != "mttdl":
                raise ValueError(
                    "audit-rate sweeps report the MTTDL metric; sweep a "
                    "model parameter for loss probabilities"
                )
            result = sweep_audit_rate(system.model, list(spec.values))
        elif spec.metric == "loss_probability":
            mission_hours = years_to_hours(scenario.mission_years)
            result = sweep_parameter(
                system.model,
                spec.parameter,
                list(spec.values),
                metric=lambda m: probability_of_loss(
                    mirrored_mttdl(m), mission_hours
                ),
                metric_name="loss_probability",
            )
        else:
            result = sweep_parameter(
                system.model, spec.parameter, list(spec.values)
            )
        details = {
            "parameter": result.parameter,
            "metric": spec.metric,
            "values": result.values,
            "metrics": result.metrics,
        }
        return _sweep_result(scenario, "analytic", details)

    backend, method = engine_backend_method(policy.engine)
    with obs.current().span("kernel"):
        result, trials, censored = _simulated_sweep(scenario, backend, method)
    details = {
        "parameter": result.parameter,
        "metric": spec.metric,
        "values": result.values,
        "metrics": result.metrics,
    }
    return _sweep_result(
        scenario, method, details, trials=trials, censored=censored
    )


def _simulated_sweep(
    scenario: Scenario, backend: str, method: str
) -> tuple:
    """The simulation-backed sweep loops (moved here from
    :mod:`repro.analysis.sweep`, whose public functions now shim to the
    facade).

    Every point reuses the same root seed (common random numbers — see
    the note in :func:`repro.analysis.sweep.simulated_parameter_sweep`);
    the analytic series is attached for mirrored-pair MTTDL sweeps.
    """
    spec = scenario.sweep
    system = scenario.system
    policy = scenario.policy
    simulated: List[float] = []
    errors: List[float] = []
    analytic: List[float] = []
    total_trials = 0
    total_censored = 0

    if spec.parameter == "audits_per_year":
        if spec.metric != "mttdl":
            raise ValueError(
                "audit-rate sweeps report the MTTDL metric; sweep a model "
                "parameter for loss probabilities"
            )
        rates = [float(rate) for rate in spec.values]
        analytic_sweep = sweep_audit_rate(system.model, rates)
        for rate in rates:
            estimate = run_mttdl(
                model=system.model,
                trials=policy.trials,
                seed=policy.seed,
                max_time=scenario.max_time_hours,
                replicas=system.replicas,
                audits_per_year=rate,
                scheme=system.scheme,
                backend=backend,
                target_relative_error=policy.target_relative_error,
                max_trials=policy.max_trials,
                method=method,
                bias=policy.bias,
            )
            simulated.append(estimate.mean)
            errors.append(estimate.std_error)
            total_trials += estimate.trials
            total_censored += estimate.censored
        result = SweepResult(
            parameter="audits_per_year",
            values=rates,
            metrics={
                "sim_mttdl_hours": simulated,
                "sim_std_error": errors,
                "mttdl_hours": analytic_sweep.metric("mttdl_hours"),
            },
        )
        return result, total_trials, total_censored

    field_name = PARAMETER_FIELDS[spec.parameter]
    for value in spec.values:
        modified = replace(system.model, **{field_name: value})
        if spec.metric == "mttdl":
            estimate = run_mttdl(
                model=modified,
                trials=policy.trials,
                seed=policy.seed,
                max_time=scenario.max_time_hours,
                replicas=system.replicas,
                audits_per_year=system.audits_per_year,
                scheme=system.scheme,
                backend=backend,
                target_relative_error=policy.target_relative_error,
                max_trials=policy.max_trials,
                method=method,
                bias=policy.bias,
            )
            if system.replicas == 2 and system.effective_scheme().is_replication:
                analytic.append(
                    mirrored_mttdl(
                        audit_adjusted_model(modified, system.audits_per_year)
                    )
                )
        else:
            estimate = run_loss_probability(
                model=modified,
                mission_time=scenario.mission_years * HOURS_PER_YEAR,
                trials=policy.trials,
                seed=policy.seed,
                replicas=system.replicas,
                audits_per_year=system.audits_per_year,
                scheme=system.scheme,
                backend=backend,
                target_relative_error=policy.target_relative_error,
                max_trials=policy.max_trials,
                method=method,
                bias=policy.bias,
            )
        simulated.append(estimate.mean)
        errors.append(estimate.std_error)
        total_trials += estimate.trials
        total_censored += estimate.censored
    metrics = {f"sim_{spec.metric}": simulated, "sim_std_error": errors}
    if analytic:
        metrics["mttdl_hours"] = analytic
    result = SweepResult(
        parameter=spec.parameter, values=list(spec.values), metrics=metrics
    )
    return result, total_trials, total_censored


def _sweep_result(
    scenario: Scenario,
    method: str,
    details: Dict[str, object],
    trials: int = 0,
    censored: int = 0,
) -> StudyResult:
    return StudyResult(
        question="sweep",
        engine=scenario.policy.engine,
        method=method,
        units="",
        trials=trials,
        losses=trials - censored,
        censored=censored,
        details=details,
    )


# ---------------------------------------------------------------------------
# Frontier
# ---------------------------------------------------------------------------


def _run_frontier(
    scenario: Scenario,
    jobs: int,
    cache_dir: Optional[Union[str, Path]],
) -> StudyResult:
    tel = obs.current()
    policy = scenario.policy
    with tel.span("setup"):
        if policy.engine == "analytic":
            backend, method = "batch", "auto"
            refine = False
        else:
            backend, method = engine_backend_method(policy.engine)
            refine = True
        settings = EvaluationSettings(
            mission_years=scenario.mission_years,
            trials=policy.trials,
            seed=policy.seed,
            backend=backend,
            target_relative_error=policy.target_relative_error,
            max_trials=policy.max_trials,
            method=method,
        )
    if tel.enabled:
        tel.event(
            "engine_resolved",
            data={
                "engine": policy.engine,
                "backend": backend,
                "method": method,
                "question": "frontier",
            },
        )
    with tel.span("kernel"):
        outcome = optimize(
            scenario.space,
            settings,
            jobs=jobs,
            cache_dir=cache_dir,
            slack=scenario.slack,
            refine_survivors=refine,
        )
        recommended = None
        if scenario.budget is not None or scenario.target_loss is not None:
            recommended = recommend(
                outcome.frontier,
                budget=scenario.budget,
                target_loss=scenario.target_loss,
            )
    with tel.span("merge"):
        details: Dict[str, object] = {
            "space": scenario.space.as_dict(),
            "settings": settings.as_dict(),
            "budget": scenario.budget,
            "target_loss": scenario.target_loss,
            "summary": outcome.summary(),
            "frontier": [e.as_dict() for e in outcome.frontier],
            "recommended": recommended.as_dict() if recommended else None,
        }
    if recommended is not None:
        simulated = recommended.simulated
        return StudyResult(
            question="frontier",
            engine=policy.engine,
            method=simulated.method if simulated else "screen",
            value=recommended.loss_probability,
            std_error=simulated.std_error if simulated else 0.0,
            ci_low=recommended.loss_low,
            ci_high=recommended.loss_high,
            units="probability",
            trials=simulated.trials if simulated else 0,
            losses=simulated.losses if simulated else 0,
            censored=(
                simulated.trials - simulated.losses if simulated else 0
            ),
            details=details,
        )
    return StudyResult(
        question="frontier",
        engine=policy.engine,
        method=method if refine else "screen",
        units="probability",
        details=details,
    )


# ---------------------------------------------------------------------------
# Fleet
# ---------------------------------------------------------------------------


def _run_fleet(
    scenario: Scenario,
    jobs: int,
    cache_dir: Optional[Union[str, Path]],
) -> StudyResult:
    tel = obs.current()
    with tel.span("setup"):
        timeline = scenario.timeline
        members = scenario.members
    with tel.span("kernel"):
        outcome = simulate_fleet(
            timeline,
            members=members,
            seed=scenario.policy.seed,
            jobs=jobs,
            chunk_size=scenario.chunk_size,
            cache_dir=cache_dir,
        )
    with tel.span("merge"):
        estimate = outcome.loss_estimate()
        low, high = estimate.confidence_interval()
        details = outcome.as_dict()
    return StudyResult(
        question="fleet_survival",
        engine=scenario.policy.engine,
        method="fleet",
        value=estimate.mean,
        std_error=estimate.std_error,
        ci_low=low,
        ci_high=high,
        units="probability",
        trials=estimate.trials,
        losses=estimate.losses,
        censored=estimate.censored,
        details=details,
    )
