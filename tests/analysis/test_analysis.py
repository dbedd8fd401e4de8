"""Tests for sweeps, model comparison, tables, plotting, and reports."""

import pytest

from repro.analysis.compare import compare_models
from repro.analysis.plotting import (
    ascii_bar_chart,
    ascii_histogram,
    ascii_line_chart,
)
from repro.analysis.report import ExperimentRecord, ExperimentReport, scenario_experiment_report
from repro.analysis.sweep import (
    sweep_audit_rate,
    sweep_correlation,
    sweep_parameter,
    sweep_replication,
)
from repro.analysis.tables import format_dict, format_scenario_table, format_sweep, format_table
from repro.core.approximations import best_approximation
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.scenarios import paper_scenarios
from repro.study import EstimatorPolicy, Scenario, SweepSpec, SystemSpec, run


def model(**overrides):
    base = dict(
        mean_time_to_visible=1.4e6,
        mean_time_to_latent=2.8e5,
        mean_repair_visible=1.0 / 3.0,
        mean_repair_latent=1.0 / 3.0,
        mean_detect_latent=1460.0,
        correlation_factor=1.0,
    )
    base.update(overrides)
    return FaultModel(**base)


class TestSweeps:
    def test_sweep_parameter_shapes(self):
        result = sweep_parameter(model(), "MDL", [100.0, 1000.0, 10000.0])
        assert result.values == [100.0, 1000.0, 10000.0]
        assert len(result.metric("mttdl_hours")) == 3

    def test_sweep_parameter_monotone_in_mdl(self):
        result = sweep_parameter(model(), "MDL", [100.0, 1000.0, 10000.0])
        series = result.metric("mttdl_hours")
        assert series == sorted(series, reverse=True)

    def test_sweep_parameter_unknown_name(self):
        with pytest.raises(ValueError):
            sweep_parameter(model(), "bogus", [1.0])

    def test_sweep_unknown_metric_name(self):
        result = sweep_parameter(model(), "MDL", [100.0])
        with pytest.raises(KeyError):
            result.metric("nope")

    def test_sweep_rows_and_columns(self):
        result = sweep_audit_rate(model(), [0.0, 3.0, 12.0])
        rows = result.as_rows()
        assert len(rows) == 3
        assert len(rows[0]) == len(result.column_names())

    def test_audit_rate_sweep_monotone(self):
        result = sweep_audit_rate(model(), [0.0, 1.0, 3.0, 12.0, 52.0])
        series = result.metric("mttdl_years")
        assert series == sorted(series)

    def test_audit_rate_sweep_rejects_negative(self):
        with pytest.raises(ValueError):
            sweep_audit_rate(model(), [-1.0])

    def test_replication_sweep_keys_and_monotonicity(self):
        results = sweep_replication(1.4e6, 1.0 / 3.0, 5, correlation_factors=[1.0, 0.01])
        assert set(results) == {1.0, 0.01}
        independent = results[1.0].metric("mttdl_hours")
        correlated = results[0.01].metric("mttdl_hours")
        assert independent[-1] > correlated[-1]

    def test_correlation_sweep(self):
        result = sweep_correlation(model(), [0.001, 0.01, 0.1, 1.0])
        series = result.metric("mttdl_hours")
        assert series == sorted(series)


class TestSimulatedSweeps:
    @pytest.fixture(autouse=True)
    def _bind_fast_model(self, fast_model_factory):
        # The canonical compressed-time model lives in tests/conftest.py.
        self.fast_model = fast_model_factory

    def sweep(self, parameter, values, trials, seed, metric="mttdl",
              audits_per_year=None, **scenario):
        """The details of a batch-engine ``question="sweep"`` run."""
        return run(
            Scenario(
                question="sweep",
                system=SystemSpec(
                    model=self.fast_model(), audits_per_year=audits_per_year
                ),
                sweep=SweepSpec(
                    parameter=parameter, values=tuple(values), metric=metric
                ),
                policy=EstimatorPolicy(engine="batch", trials=trials, seed=seed),
                **scenario,
            )
        ).details

    def test_parameter_sweep_shapes_and_analytic_series(self):
        details = self.sweep(
            "alpha", [0.2, 1.0], trials=800, seed=1, max_time_hours=1e6
        )
        metrics = details["metrics"]
        assert details["values"] == [0.2, 1.0]
        assert len(metrics["sim_mttdl"]) == 2
        assert len(metrics["sim_std_error"]) == 2
        assert len(metrics["mttdl_hours"]) == 2
        # Stronger correlation must hurt the simulated MTTDL too.
        assert metrics["sim_mttdl"][0] < metrics["sim_mttdl"][1]

    def test_parameter_sweep_loss_metric(self):
        metrics = self.sweep(
            "MDL",
            [5.0, 100.0],
            trials=800,
            seed=2,
            metric="loss_probability",
            mission_years=0.5,
        )["metrics"]
        series = metrics["sim_loss_probability"]
        assert all(0.0 <= value <= 1.0 for value in series)
        # Slower detection means a riskier mission.
        assert series[0] <= series[1]
        assert "mttdl_hours" not in metrics

    def test_parameter_sweep_validation(self):
        with pytest.raises(ValueError):
            self.sweep("bogus", [1.0], trials=10, seed=0)
        with pytest.raises(ValueError):
            self.sweep("MDL", [5.0], trials=10, seed=0, metric="latency")

    def test_parameter_sweep_analytic_respects_audit_override(self):
        # With auditing disabled, the attached analytic series must
        # describe the no-scrub regime (MDL = ML), not the base model's
        # scrubbed MDL — otherwise the sim-vs-analytic comparison spans
        # two different physical systems.
        metrics = self.sweep(
            "MV",
            [500.0],
            trials=600,
            seed=4,
            max_time_hours=1e6,
            audits_per_year=0.0,
        )["metrics"]
        base = self.fast_model()
        no_scrub = mirrored_mttdl(
            base.with_detection_time(base.mean_time_to_latent)
        )
        scrubbed = mirrored_mttdl(base)
        analytic = metrics["mttdl_hours"][0]
        assert analytic == pytest.approx(no_scrub)
        assert analytic < scrubbed / 3.0
        # And the simulated value sits within the simulator's documented
        # factor of the matching closed form.
        assert no_scrub / 3.0 < metrics["sim_mttdl"][0] < no_scrub * 3.0

    def test_audit_sweep_tracks_analytic_shape(self):
        metrics = self.sweep(
            "audits_per_year",
            [0.0, 400.0, 1800.0],
            trials=800,
            seed=3,
            max_time_hours=1e6,
        )["metrics"]
        simulated = metrics["sim_mttdl_hours"]
        assert len(simulated) == 3
        assert len(metrics["mttdl_hours"]) == 3
        # More frequent audits help, in simulation as in the closed form.
        assert simulated[0] < simulated[-1]


class TestComparison:
    def test_all_methods_positive_and_same_order(self):
        comparison = compare_models(model())
        values = comparison.as_dict()
        assert all(value > 0 for value in values.values())
        assert max(values.values()) / min(values.values()) < 5.0

    def test_monte_carlo_optional(self):
        comparison = compare_models(model())
        assert comparison.monte_carlo is None

    def test_in_years_scales(self):
        comparison = compare_models(model())
        assert comparison.in_years()["markov"] == pytest.approx(
            comparison.markov / 8760.0
        )

    def test_approximation_error_positive_for_scrubbed_scenario(self):
        # Eq. 10 is optimistic relative to the full Eq. 7 here.
        assert best_approximation(model()) > mirrored_mttdl(model())


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].strip().startswith("a")

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_format_table_handles_inf_and_large_numbers(self):
        text = format_table(["x"], [[float("inf")], [1e12], [1e-9]])
        assert "inf" in text
        assert "e" in text

    def test_format_dict(self):
        text = format_dict({"alpha": 0.1, "beta": 2}, title="params")
        assert "params" in text
        assert "alpha" in text

    def test_format_scenario_table_lists_all_scenarios(self):
        text = format_scenario_table(paper_scenarios())
        for name in paper_scenarios():
            assert name in text

    def test_format_sweep(self):
        sweep = sweep_audit_rate(model(), [1.0, 3.0])
        text = format_sweep(sweep, title="audits")
        assert "audits_per_year" in text
        assert "audits" in text


class TestPlotting:
    def test_line_chart_contains_points(self):
        chart = ascii_line_chart([1, 2, 3], [10, 20, 30], title="t")
        assert "*" in chart
        assert "t" in chart

    def test_line_chart_log_scale(self):
        chart = ascii_line_chart([1, 2, 3], [1.0, 100.0, 10000.0], log_y=True)
        assert "*" in chart

    def test_line_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_line_chart([1, 2], [1.0])
        with pytest.raises(ValueError):
            ascii_line_chart([], [])
        with pytest.raises(ValueError):
            ascii_line_chart([1, 2], [0.0, 1.0], log_y=True)
        with pytest.raises(ValueError):
            ascii_line_chart([1, 2], [1.0, 2.0], width=5)

    def test_bar_chart(self):
        chart = ascii_bar_chart(["a", "bb"], [1.0, 4.0])
        assert "a" in chart and "bb" in chart
        assert "#" in chart

    def test_bar_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [-1.0])
        with pytest.raises(ValueError):
            ascii_bar_chart([], [])

    def test_histogram(self):
        chart = ascii_histogram([1.0, 1.5, 2.0, 5.0, 5.1], bins=4)
        assert "#" in chart

    def test_histogram_single_value(self):
        chart = ascii_histogram([3.0, 3.0, 3.0])
        assert "3" in chart

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            ascii_histogram([])
        with pytest.raises(ValueError):
            ascii_histogram([1.0], bins=0)


class TestReports:
    def test_experiment_record_relative_error(self):
        record = ExperimentRecord("E1", "x", 100.0, 110.0, "years", True)
        assert record.relative_error == pytest.approx(0.1)

    def test_experiment_record_no_paper_value(self):
        record = ExperimentRecord("E9", "shape only", None, 5.0, "count", True)
        assert record.relative_error is None

    def test_report_grouping_and_rendering(self):
        report = ExperimentReport()
        report.add(ExperimentRecord("E1", "a", 1.0, 1.0, "x", True))
        report.add(ExperimentRecord("E1", "b", 2.0, 2.2, "x", True))
        report.add(ExperimentRecord("E2", "c", None, 3.0, "x", False))
        assert [record.shape_holds for record in report.records] == [
            True, True, False,
        ]
        rendered = report.render()
        assert "experiment" in rendered and "E2" in rendered

    def test_scenario_report_reproduces_paper(self):
        report = scenario_experiment_report()
        assert all(record.shape_holds for record in report.records)
        errors = [
            record.relative_error
            for record in report.records
            if record.relative_error is not None
        ]
        assert errors and max(errors) < 0.05
