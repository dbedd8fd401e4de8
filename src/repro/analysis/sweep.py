"""Parameter sweeps over the analytic model and the simulator.

Every figure-shaped experiment in EXPERIMENTS.md is a sweep: MTTDL as a
function of audit rate (E8), replication degree (E6), correlation factor
(E5/E6), or any single model parameter.  :class:`SweepResult` holds the
swept values and the metric series so the benchmark harness and the
ASCII plots can consume the same object.

Simulated series over the same grids come from :func:`repro.study.run`
with a ``question="sweep"`` scenario on a Monte-Carlo engine; each
carries its standard error next to the analytic prediction.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import PARAMETER_FIELDS, FaultModel
from repro.core.replication import replicated_mttdl
from repro.core.units import HOURS_PER_YEAR


@dataclass(frozen=True)
class SweepResult:
    """One swept series.

    Attributes:
        parameter: name of the swept quantity.
        values: the swept values, in order.
        metrics: mapping from metric name to the series of metric values
            aligned with ``values``.
    """

    parameter: str
    values: List[float]
    metrics: Dict[str, List[float]] = field(default_factory=dict)

    def metric(self, name: str) -> List[float]:
        """One metric series by name.

        Raises:
            KeyError: listing the available metrics when absent.
        """
        if name not in self.metrics:
            raise KeyError(
                f"unknown metric {name!r}; available: {sorted(self.metrics)}"
            )
        return self.metrics[name]

    def as_rows(self) -> List[List[float]]:
        """Rows of [value, metric1, metric2, ...] for table formatting."""
        names = sorted(self.metrics)
        return [
            [value] + [self.metrics[name][index] for name in names]
            for index, value in enumerate(self.values)
        ]

    def column_names(self) -> List[str]:
        return [self.parameter] + sorted(self.metrics)


def sweep_parameter(
    model: FaultModel,
    parameter: str,
    values: Sequence[float],
    metric: Callable[[FaultModel], float] = mirrored_mttdl,
    metric_name: str = "mttdl_hours",
) -> SweepResult:
    """Sweep one :class:`FaultModel` parameter and evaluate a metric.

    Args:
        model: the base operating point.
        parameter: ``MV``, ``ML``, ``MRV``, ``MRL``, ``MDL``, or
            ``alpha``.
        values: values to substitute for the parameter.
        metric: function of the modified model to record.
        metric_name: label for the metric series.
    """
    field_name = PARAMETER_FIELDS.get(parameter)
    if field_name is None:
        raise ValueError(
            f"unknown parameter {parameter!r}; expected one of "
            f"{sorted(PARAMETER_FIELDS)}"
        )
    series = []
    for value in values:
        modified = replace(model, **{field_name: value})
        series.append(metric(modified))
    return SweepResult(
        parameter=parameter, values=list(values), metrics={metric_name: series}
    )


def sweep_audit_rate(
    model: FaultModel, audits_per_year: Sequence[float]
) -> SweepResult:
    """MTTDL (hours and years) as a function of the audit rate.

    Each rate sets ``MDL`` by :meth:`FaultModel.with_audit_rate`.
    """
    mttdl_hours: List[float] = []
    mttdl_years: List[float] = []
    mdl_values: List[float] = []
    for rate in audits_per_year:
        adjusted = model.with_audit_rate(rate)
        hours = mirrored_mttdl(adjusted)
        mttdl_hours.append(hours)
        mttdl_years.append(hours / HOURS_PER_YEAR)
        mdl_values.append(adjusted.mean_detect_latent)
    return SweepResult(
        parameter="audits_per_year",
        values=list(audits_per_year),
        metrics={
            "mttdl_hours": mttdl_hours,
            "mttdl_years": mttdl_years,
            "mdl_hours": mdl_values,
        },
    )


def sweep_replication(
    mean_time_to_fault: float,
    mean_repair_time: float,
    max_replicas: int,
    correlation_factors: Sequence[float] = (1.0,),
) -> Dict[float, SweepResult]:
    """Eq. 12 MTTDL vs replication degree for several correlation factors.

    Returns one :class:`SweepResult` per correlation factor, keyed by the
    factor — the data behind the paper's "replication without
    independence does not help much" conclusion.
    """
    if max_replicas < 1:
        raise ValueError("max_replicas must be at least 1")
    results: Dict[float, SweepResult] = {}
    degrees = list(range(1, max_replicas + 1))
    for alpha in correlation_factors:
        hours = [
            replicated_mttdl(mean_time_to_fault, mean_repair_time, r, alpha)
            for r in degrees
        ]
        results[alpha] = SweepResult(
            parameter="replicas",
            values=[float(r) for r in degrees],
            metrics={
                "mttdl_hours": hours,
                "mttdl_years": [h / HOURS_PER_YEAR for h in hours],
            },
        )
    return results


def sweep_correlation(
    model: FaultModel, alphas: Sequence[float]
) -> SweepResult:
    """MTTDL as a function of the correlation factor ``α``."""
    hours = [mirrored_mttdl(model.with_correlation(alpha)) for alpha in alphas]
    return SweepResult(
        parameter="alpha",
        values=list(alphas),
        metrics={
            "mttdl_hours": hours,
            "mttdl_years": [h / HOURS_PER_YEAR for h in hours],
        },
    )


def audit_adjusted_model(
    model: FaultModel, audits_per_year: Optional[float]
) -> FaultModel:
    """Fold an audit-rate override into the model for analytic evaluation.

    The simulators take ``audits_per_year`` as a separate knob; the
    closed forms only see ``MDL``.  Like :func:`sweep_audit_rate`, the
    override sets ``MDL`` by :meth:`FaultModel.with_audit_rate`, so the
    attached analytic series describes the same scrubbing regime as the
    simulated one.
    """
    if audits_per_year is None:
        return model
    return model.with_audit_rate(audits_per_year)
