"""Experiment report assembly.

Each benchmark produces an :class:`ExperimentRecord` — the experiment id,
what the paper reports, what we measured, and whether the qualitative
shape holds.  :class:`ExperimentReport` collects the records and renders
the per-experiment summary recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.tables import format_table
from repro.core.scenarios import Scenario, paper_scenarios


@dataclass(frozen=True)
class ExperimentRecord:
    """One reproduced quantity.

    Attributes:
        experiment_id: identifier from DESIGN.md (e.g. ``"E2"``).
        description: what is being reproduced.
        paper_value: the number the paper reports (None if the paper only
            reports a shape).
        measured_value: the value this repository produces.
        unit: unit of both values.
        shape_holds: whether the qualitative conclusion holds (who wins,
            direction of the effect, order of magnitude).
        notes: any caveat (e.g. known bookkeeping difference).
    """

    experiment_id: str
    description: str
    paper_value: Optional[float]
    measured_value: float
    unit: str
    shape_holds: bool
    notes: str = ""

    @property
    def relative_error(self) -> Optional[float]:
        """Relative error vs the paper's value, when one exists."""
        if self.paper_value is None or self.paper_value == 0:
            return None
        return abs(self.measured_value - self.paper_value) / abs(self.paper_value)


@dataclass
class ExperimentReport:
    """A collection of experiment records, renderable as a table."""

    records: List[ExperimentRecord] = field(default_factory=list)

    def add(self, record: ExperimentRecord) -> None:
        self.records.append(record)

    def render(self, precision: int = 3) -> str:
        """Render the report as a fixed-width table."""
        headers = [
            "experiment",
            "description",
            "paper",
            "measured",
            "unit",
            "rel err",
            "shape holds",
        ]
        rows = []
        for record in self.records:
            relative = record.relative_error
            rows.append(
                [
                    record.experiment_id,
                    record.description,
                    record.paper_value if record.paper_value is not None else "-",
                    record.measured_value,
                    record.unit,
                    relative if relative is not None else "-",
                    record.shape_holds,
                ]
            )
        return format_table(headers, rows, precision=precision)


def scenario_experiment_report(
    scenarios: Optional[Dict[str, Scenario]] = None
) -> ExperimentReport:
    """Build the E1-E4 report from the Section 5.4 worked examples."""
    chosen = scenarios if scenarios is not None else paper_scenarios()
    experiment_ids = {
        "cheetah_no_scrub": "E1",
        "cheetah_scrubbed": "E2",
        "cheetah_correlated": "E3",
        "cheetah_negligent": "E4",
    }
    report = ExperimentReport()
    for name, scenario in chosen.items():
        measured = scenario.paper_method_mttdl_years()
        paper_value = scenario.paper_mttdl_years
        shape = True
        if paper_value is not None and paper_value > 0:
            shape = 0.5 <= measured / paper_value <= 2.0
        report.add(
            ExperimentRecord(
                experiment_id=experiment_ids.get(name, "E1"),
                description=f"MTTDL, {scenario.description}",
                paper_value=paper_value,
                measured_value=measured,
                unit="years",
                shape_holds=shape,
                notes=f"evaluated via {scenario.paper_equation}",
            )
        )
        measured_p = scenario.paper_method_loss_probability()
        paper_p = scenario.paper_loss_probability_50yr
        shape_p = True
        if paper_p is not None and paper_p > 0:
            shape_p = 0.5 <= measured_p / paper_p <= 2.0
        report.add(
            ExperimentRecord(
                experiment_id=experiment_ids.get(name, "E1"),
                description=f"P(loss in 50 yr), {scenario.description}",
                paper_value=paper_p,
                measured_value=measured_p,
                unit="probability",
                shape_holds=shape_p,
            )
        )
    return report
