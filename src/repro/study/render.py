"""One renderer for every study answer — tables, ASCII charts, JSON.

The CLI used to carry seven bespoke ``_cmd_*`` formatting paths; they
now collapse into two functions over the same
:class:`~repro.study.result.StudyResult`:

* :func:`render_text` — human-readable tables and charts, dispatched on
  the question kind;
* :func:`render_json` — the machine-readable envelope
  ``{"command", "schema", "scenario", "result"}``.  Embedding the full
  scenario makes every emitted payload re-runnable: feed the
  ``scenario`` object back through :meth:`Scenario.from_dict` /
  :func:`repro.study.run` and you reproduce the answer (same seed, same
  numbers).

:func:`emit_json` is the single JSON emission path (every payload
carries the ``schema`` version), shared by all ``--json`` sub-commands.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List

from repro.analysis.plotting import ascii_line_chart
from repro.analysis.sweep import SweepResult
from repro.analysis.tables import format_dict, format_sweep, format_table
from repro.core.units import HOURS_PER_YEAR
from repro.study.result import StudyResult
from repro.study.scenario import Scenario

#: Version of the CLI's ``--json`` envelope.  Version 1 was the
#: pre-``repro.study`` era of per-subcommand ad-hoc payloads; version 2
#: is the uniform ``{command, schema, scenario, result}`` envelope.
CLI_JSON_SCHEMA_VERSION = 2


def emit_json(command: str, payload: Dict[str, object]) -> str:
    """The one JSON emission path shared by every ``--json`` sub-command.

    Prepends the ``command`` discriminator and the envelope ``schema``
    version so consumers can route mixed output streams and detect
    layout changes, and fixes the formatting convention in one place.
    """
    return json.dumps(
        {"command": command, "schema": CLI_JSON_SCHEMA_VERSION, **payload},
        indent=2,
    )


def render_json(
    command: str, scenario: Scenario, result: StudyResult
) -> str:
    """The uniform machine-readable envelope of one study run."""
    return emit_json(
        command,
        {"scenario": scenario.as_dict(), "result": result.as_dict()},
    )


def render_text(scenario: Scenario, result: StudyResult) -> str:
    """Human-readable rendering, dispatched on the question kind."""
    if result.question in ("mttdl", "loss_probability"):
        text = _render_point_estimate(scenario, result)
    elif result.question == "sweep":
        text = _render_sweep(scenario, result)
    elif result.question == "frontier":
        text = _render_frontier(scenario, result)
    else:
        text = _render_fleet(scenario, result)
    if result.scenario_hash:
        # The content hash is the key every cache — and the serve
        # layer's result store — files this answer under; printing it
        # lets interactive runs be correlated with server store entries.
        text += f"\nscenario hash: {result.scenario_hash}"
    for note in result.warnings:
        text += f"\nwarning: {note}"
    return text


# ---------------------------------------------------------------------------
# Point estimates
# ---------------------------------------------------------------------------


def _render_point_estimate(scenario: Scenario, result: StudyResult) -> str:
    details = result.details
    if "methods_mttdl_years" in details:
        # The markov engine carries the full E11 cross-validation table.
        return format_dict(
            details["methods_mttdl_years"], title="MTTDL (years) by method"
        )
    mission = f"{scenario.mission_years:g}"
    if result.engine in ("analytic", "markov"):
        title = (
            "mirrored-pair reliability"
            if scenario.system.replicas == 2
            else f"{scenario.system.replicas}-way reliability"
        )
        return format_dict(
            {
                "MTTDL (hours)": details["mttdl_hours"],
                "MTTDL (years)": details["mttdl_years"],
                f"P(loss in {mission} years)": details["loss_probability"],
            },
            title=f"{title} ({result.engine})",
        )

    value = math.inf if result.value is None else result.value
    low = math.inf if result.ci_low is None else result.ci_low
    high = math.inf if result.ci_high is None else result.ci_high
    if result.question == "mttdl":
        values = {
            "MTTDL (hours)": value,
            "MTTDL (years)": value / HOURS_PER_YEAR,
            "std error (hours)": (
                math.inf if result.std_error is None else result.std_error
            ),
            "95% CI low (years)": low / HOURS_PER_YEAR,
            "95% CI high (years)": high / HOURS_PER_YEAR,
            "trials": result.trials,
            "censored": result.censored,
        }
        title = f"simulated MTTDL ({result.engine} engine)"
    else:
        values = {
            f"P(loss in {mission} years)": value,
            "std error": (
                math.inf if result.std_error is None else result.std_error
            ),
            "95% CI low": low,
            "95% CI high": high,
            "trials": result.trials,
            "censored": result.censored,
        }
        title = f"simulated loss probability ({result.engine} engine)"
    values["method"] = result.method
    if result.effective_sample_size is not None:
        values["effective sample size"] = result.effective_sample_size
    parts = [format_dict(values, title=title)]
    cross = details.get("cross_check")
    if cross:
        parts.append(
            format_dict(
                cross, title="cross-check (closed form / Markov chain)"
            )
        )
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _render_sweep(scenario: Scenario, result: StudyResult) -> str:
    details = result.details
    if "series" in details:
        # Replication sweep: one MTTDL-years column per alpha.
        series: Dict[str, Dict[str, List[float]]] = details["series"]
        headers = ["replicas"] + [
            f"alpha={alpha} (yr)" for alpha in series
        ]
        degrees = details["values"]
        rows = []
        for index in range(len(degrees)):
            rows.append(
                [int(degrees[index])]
                + [
                    series[alpha]["mttdl_years"][index]
                    for alpha in series
                ]
            )
        return format_table(headers, rows)
    sweep = SweepResult(
        parameter=details["parameter"],
        values=list(details["values"]),
        metrics={
            name: list(values)
            for name, values in details["metrics"].items()
        },
    )
    if details["parameter"] == "audits_per_year":
        title = "MTTDL vs audit rate"
    else:
        title = f"{details['metric']} vs {details['parameter']}"
    if result.engine != "analytic":
        title += f" ({result.engine} engine)"
    return format_sweep(sweep, title=title)


# ---------------------------------------------------------------------------
# Frontier
# ---------------------------------------------------------------------------


def _loss_stats(point: Dict[str, object]) -> Dict[str, float]:
    """Best available loss estimate and bounds of one frontier entry."""
    simulated = point.get("simulated")
    analytic = point["analytic_loss_probability"]
    if simulated:
        return {
            "loss": simulated["mean"],
            "low": simulated["ci_low"],
            "high": simulated["ci_high"],
        }
    return {"loss": analytic, "low": analytic, "high": analytic}


def _render_frontier(scenario: Scenario, result: StudyResult) -> str:
    details = result.details
    mission = f"{scenario.mission_years:g} yr"
    rows: List[List[object]] = []
    for point in details["frontier"]:
        candidate = point["candidate"]
        stats = _loss_stats(point)
        rows.append(
            [
                candidate["medium"],
                candidate["replicas"],
                candidate["audits_per_year"],
                candidate["placement"],
                point["annual_cost"],
                point["analytic_loss_probability"],
                stats["loss"],
                stats["low"],
                stats["high"],
            ]
        )
    table = format_table(
        [
            "medium",
            "replicas",
            "audits/yr",
            "placement",
            "cost ($/yr)",
            f"screen P(loss, {mission})",
            f"sim P(loss, {mission})",
            "95% CI low",
            "95% CI high",
        ],
        rows,
        title="cost-reliability Pareto frontier",
    )
    parts = [table]
    # The log-scale chart can only show points with a non-zero screened
    # loss; a degenerate (rate-zero) candidate is still in the table.
    chartable = [
        p for p in details["frontier"] if p["analytic_loss_probability"] > 0
    ]
    if len(chartable) >= 2:
        parts.append(
            ascii_line_chart(
                [p["annual_cost"] for p in chartable],
                [p["analytic_loss_probability"] for p in chartable],
                title=(
                    f"frontier: annual cost ($) vs screened "
                    f"P(loss, {mission}), log y"
                ),
                log_y=True,
            )
        )
    recommended = details.get("recommended")
    if recommended:
        candidate = recommended["candidate"]
        simulated = recommended.get("simulated")
        stats = _loss_stats(recommended)
        parts.append(
            format_dict(
                {
                    "medium": candidate["medium"],
                    "replicas": candidate["replicas"],
                    "audits per year": candidate["audits_per_year"],
                    "placement": candidate["placement"],
                    "annual cost ($)": recommended["annual_cost"],
                    f"screened P(loss, {mission})": recommended[
                        "analytic_loss_probability"
                    ],
                    f"simulated P(loss, {mission})": stats["loss"],
                    "95% CI": f"[{stats['low']:.3g}, {stats['high']:.3g}]",
                    "refined with": (
                        simulated["method"] if simulated else "screen"
                    ),
                    "agrees with screen": bool(
                        recommended["agrees_with_screen"]
                    ),
                },
                title="recommended configuration",
            )
        )
    summary = details["summary"]
    parts.append(
        format_dict(
            {
                "candidates": summary["candidates"],
                "pruned by screen": summary["pruned_by_screen"],
                "refined by simulation": summary["refined"],
                "new evaluations": summary["new_evaluations"],
                "cache hits": summary["cache_hits"],
                "cache errors": summary.get("cache_errors", 0),
            },
            title="search effort",
        )
    )
    return "\n\n".join(parts)


# ---------------------------------------------------------------------------
# Fleet
# ---------------------------------------------------------------------------


def _render_fleet(scenario: Scenario, result: StudyResult) -> str:
    details = result.details
    summary = details["summary"]
    survival = details["survival_curve"]
    loss_by_year = details["loss_fraction_by_year"]
    cumulative_cost = details["cumulative_cost_per_member"]
    label = details["timeline"].get("label") or "(unnamed)"
    years = int(math.ceil(summary["years"]))
    step = max(1, years // 10)
    checkpoints = list(range(0, years, step)) + [years]
    rows = [
        [
            year,
            survival[year],
            loss_by_year[year - 1] if year else 0.0,
            cumulative_cost[year - 1] if year else 0.0,
        ]
        for year in checkpoints
    ]
    parts = [
        format_dict(
            {
                "timeline": label,
                "members": summary["members"],
                "years": summary["years"],
                "epochs": summary["epochs"],
                "migrations": summary["migrations"],
                "losses": summary["losses"],
                "surviving fraction": 1.0 - summary["loss_fraction"],
                "loss fraction": summary["loss_fraction"],
                "95% CI": (
                    f"[{summary['loss_ci_low']:.3g}, "
                    f"{summary['loss_ci_high']:.3g}]"
                ),
                "migration losses": summary["migration_losses"],
                "shock events": summary["shock_events"],
                "repairs": summary["repairs"],
                "total cost per member ($)": summary["total_cost_per_member"],
            },
            title="fleet outcome",
        ),
        format_table(
            ["year", "surviving", "cum. loss fraction", "cum. cost ($)"],
            rows,
            title="fleet trajectory",
        ),
        ascii_line_chart(
            list(range(len(survival))),
            list(survival),
            title="survival curve: fraction of members alive vs year",
        ),
    ]
    if cumulative_cost[-1] > 0:
        parts.append(
            ascii_line_chart(
                list(range(1, len(cumulative_cost) + 1)),
                list(cumulative_cost),
                title="cumulative cost per member ($) vs year",
            )
        )
    parts.append(
        format_dict(
            {
                "chunks": summary["chunks"],
                "new chunks": summary["new_chunks"],
                "cache hits": summary["cache_hits"],
                "cache errors": summary.get("cache_errors", 0),
            },
            title="execution",
        )
    )
    return "\n\n".join(parts)
