"""Sweeps, comparisons, tables, ASCII plots, and experiment reports.

This subpackage is the glue between the models and the benchmark harness:
it runs parameter sweeps over the analytic model, compares analytic /
Markov / Monte-Carlo answers, formats results as fixed-width tables and
ASCII charts (no plotting dependency), and assembles the experiment
reports recorded in EXPERIMENTS.md.
"""

from repro.analysis.sweep import (
    SweepResult,
    sweep_parameter,
    sweep_audit_rate,
    sweep_replication,
    sweep_correlation,
)
from repro.analysis.compare import (
    ModelComparison,
    compare_models,
)
from repro.analysis.tables import (
    format_table,
    format_scenario_table,
    format_dict,
)
from repro.analysis.plotting import (
    ascii_line_chart,
    ascii_bar_chart,
    ascii_histogram,
)
from repro.analysis.report import (
    ExperimentRecord,
    ExperimentReport,
    scenario_experiment_report,
)

__all__ = [
    "SweepResult",
    "sweep_parameter",
    "sweep_audit_rate",
    "sweep_replication",
    "sweep_correlation",
    "ModelComparison",
    "compare_models",
    "format_table",
    "format_scenario_table",
    "format_dict",
    "ascii_line_chart",
    "ascii_bar_chart",
    "ascii_histogram",
    "ExperimentRecord",
    "ExperimentReport",
    "scenario_experiment_report",
]
