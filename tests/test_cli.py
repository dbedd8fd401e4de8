"""Tests for the repro-storage command-line interface.

Every sub-command is a thin adapter over ``repro.study``; ``--json``
emits the uniform ``{"command", "schema", "scenario", "result"}``
envelope.  ``wall_time_seconds`` is the one legitimately
non-deterministic result field, so payload-equality assertions compare
modulo it.
"""

import json

import pytest

from repro.cli import build_parser, main
from repro.study import CLI_JSON_SCHEMA_VERSION, SCHEMA_VERSION


def _without_wall_time(payload):
    """Drop the only non-deterministic field from a JSON envelope."""
    clone = json.loads(json.dumps(payload))
    clone["result"].pop("wall_time_seconds", None)
    return clone


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenarios_command_parses(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.command == "scenarios"

    def test_mttdl_defaults_are_the_scrubbed_cheetah_pair(self):
        args = build_parser().parse_args(["mttdl"])
        assert args.mv == 1.4e6
        assert args.ml == 2.8e5
        assert args.mdl == 1460.0
        assert args.alpha == 1.0
        assert args.mission_years == 50.0

    def test_sweep_audit_rates_parse(self):
        args = build_parser().parse_args(["sweep-audit", "--rates", "0", "3", "12"])
        assert args.rates == ["0", "3", "12"]

    def test_replication_arguments(self):
        args = build_parser().parse_args(
            ["replication", "--max-replicas", "4", "--alphas", "1.0", "0.5"]
        )
        assert args.max_replicas == 4
        assert args.alphas == ["1.0", "0.5"]

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.backend == "batch"
        assert args.metric == "mttdl"
        assert args.trials == 1000
        assert args.target_relative_error is None

    def test_simulate_backend_choices(self):
        args = build_parser().parse_args(["simulate", "--backend", "event"])
        assert args.backend == "event"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backend", "gpu"])

    def test_optimize_defaults(self):
        args = build_parser().parse_args(["optimize", "--budget", "10000"])
        assert args.budget == 10000.0
        assert args.target_loss is None
        assert args.replicas == [2, 3, 4]
        assert args.jobs == 1
        assert args.cache_dir is None
        assert not args.json

    def test_optimize_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["optimize", "--budget", "1", "--placements", "orbital"]
            )

    def test_json_flags_parse(self):
        for command in (["mttdl"], ["simulate"], ["replication"],
                        ["validate"], ["optimize", "--budget", "1"]):
            args = build_parser().parse_args(command + ["--json"])
            assert args.json

    def test_seed_and_jobs_accepted_by_every_stochastic_subcommand(self):
        # One shared parent parser: identical flags, defaults and help
        # on simulate / optimize / fleet / sweep-audit.
        for command in (["simulate"], ["optimize", "--budget", "1"],
                        ["fleet"], ["sweep-audit"]):
            args = build_parser().parse_args(
                command + ["--seed", "7", "--jobs", "3"]
            )
            assert args.seed == 7
            assert args.jobs == 3

    def test_negative_seed_is_a_uniform_error(self, capsys):
        for command in (
            ["simulate", "--trials", "10"],
            ["optimize", "--budget", "1"],
            ["fleet", "--members", "10"],
            ["sweep-audit", "--trials", "10"],
        ):
            assert main(command + ["--seed", "-1"]) == 2
            assert "seed must be non-negative" in capsys.readouterr().err

    def test_bad_jobs_is_a_uniform_error(self, capsys):
        for command in (
            ["simulate", "--trials", "10"],
            ["fleet", "--members", "10"],
        ):
            assert main(command + ["--jobs", "0"]) == 2
            assert "jobs must be at least 1" in capsys.readouterr().err


class TestCommands:
    def test_scenarios_output(self, capsys):
        assert main(["scenarios"]) == 0
        output = capsys.readouterr().out
        assert "cheetah_no_scrub" in output
        assert "6128" in output

    def test_mttdl_output_defaults(self, capsys):
        assert main(["mttdl"]) == 0
        output = capsys.readouterr().out
        assert "MTTDL (years)" in output
        assert "P(loss in 50 years)" in output

    def test_mttdl_output_custom_parameters(self, capsys):
        assert main(["mttdl", "--mdl", "100", "--alpha", "0.5", "--mission-years", "10"]) == 0
        output = capsys.readouterr().out
        assert "P(loss in 10 years)" in output

    def test_mttdl_rejects_invalid_parameters(self, capsys):
        assert main(["mttdl", "--alpha", "2.0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_sweep_audit_output(self, capsys):
        assert main(["sweep-audit", "--rates", "0", "3", "12"]) == 0
        output = capsys.readouterr().out
        assert "audits_per_year" in output
        assert "mttdl_years" in output

    def test_sweep_audit_simulated_series(self, capsys):
        assert main([
            "sweep-audit", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--rates", "0", "12",
            "--trials", "150", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "sim_mttdl_hours" in output
        assert "sim_std_error" in output

    def test_replication_output(self, capsys):
        assert main(["replication", "--max-replicas", "3", "--alphas", "1.0", "0.01"]) == 0
        output = capsys.readouterr().out
        assert "replicas" in output
        assert "alpha=0.01" in output

    def test_validate_output(self, capsys):
        assert main(["validate"]) == 0
        output = capsys.readouterr().out
        assert "markov" in output
        assert "analytic_capped" in output

    def test_validate_json_output(self, capsys):
        assert main(["validate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "validate"
        methods = payload["result"]["details"]["methods_mttdl_years"]
        assert set(methods) >= {
            "analytic_capped", "markov", "markov_paper_convention",
        }

    def test_simulate_mttdl_output(self, capsys):
        # A compressed-time model keeps the simulation quick and free of
        # censoring; the default engine pilots on the batch backend.
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "400",
            "--max-time", "1e6",
        ]) == 0
        output = capsys.readouterr().out
        assert "simulated MTTDL (auto engine)" in output
        assert "95% CI low (years)" in output
        assert "censored" in output
        # engine="auto" on a mirrored pair cross-checks the closed
        # forms and the Markov chain for free.
        assert "cross-check" in output

    def test_simulate_loss_metric_event_backend(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--metric", "loss",
            "--backend", "event", "--method", "standard",
            "--trials", "50", "--mission-years", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "simulated loss probability (event engine)" in output
        assert "P(loss in 1 years)" in output

    def test_simulate_adaptive_flag(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "200",
            "--max-time", "1e6", "--target-relative-error", "0.1",
        ]) == 0
        output = capsys.readouterr().out
        assert "simulated MTTDL (auto engine)" in output

    def test_simulate_rejects_bad_trials(self, capsys):
        assert main(["simulate", "--trials", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_loss_metric_reports_censored_trials(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--metric", "loss",
            "--trials", "100", "--mission-years", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "censored" in output

    def test_simulate_surfaces_high_censoring_warning(self, capsys):
        # A horizon far below the MTTDL censors nearly every trial; with
        # the standard estimator forced, the warning must reach the CLI
        # output, not just the warning machinery.
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "100",
            "--max-time", "150", "--method", "standard",
        ]) == 0
        output = capsys.readouterr().out
        assert "warning:" in output
        assert "censored" in output

    def test_simulate_auto_answers_a_pair_by_the_control_variate(
        self, capsys
    ):
        # The same heavily-censoring run under the default auto method
        # integrates the second fault instead of warning.
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "100",
            "--max-time", "150", "--json",
        ]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["method"] == "cv"
        assert result["warnings"] == []

    def test_simulate_auto_switches_to_importance_sampling(self, capsys):
        # A heavily-censoring triple, which the control variate does not
        # cover: the default auto method switches to importance sampling
        # instead of warning.
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "100",
            "--replicas", "3", "--max-time", "2000", "--json",
        ]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["method"] == "is"
        assert result["warnings"] == []
        assert result["effective_sample_size"] is not None

    def test_simulate_explicit_is_method_reports_ess(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--metric", "loss",
            "--trials", "200", "--mission-years", "0.01",
            "--method", "is", "--bias", "20",
        ]) == 0
        output = capsys.readouterr().out
        assert "method" in output
        assert "effective sample size" in output

    def test_mttdl_json_output(self, capsys):
        assert main(["mttdl", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "mttdl"
        assert payload["schema"] == CLI_JSON_SCHEMA_VERSION
        assert payload["result"]["schema"] == SCHEMA_VERSION
        details = payload["result"]["details"]
        assert details["mttdl_years"] == pytest.approx(5106.9, rel=1e-3)
        assert payload["scenario"]["system"]["model"]["alpha"] == 1.0
        # The headline value is the MTTDL in hours.
        assert payload["result"]["units"] == "hours"
        assert payload["result"]["value"] == pytest.approx(
            details["mttdl_hours"]
        )

    def test_json_payload_roundtrips_to_the_same_answer(self, capsys):
        # The envelope embeds the scenario: loading it back and
        # re-running must reproduce the result bit-for-bit.
        from repro.study import Scenario, run

        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "200",
            "--max-time", "1e6", "--seed", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        scenario = Scenario.from_dict(payload["scenario"])
        rerun = run(scenario)
        assert rerun.value == payload["result"]["value"]
        assert rerun.std_error == payload["result"]["std_error"]
        assert rerun.scenario_hash == payload["result"]["scenario_hash"]

    def test_replication_json_output(self, capsys):
        assert main([
            "replication", "--max-replicas", "3", "--alphas", "1.0", "0.1",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        details = payload["result"]["details"]
        assert details["values"] == [1.0, 2.0, 3.0]
        assert set(details["series"]) == {"1", "0.1"}
        assert len(details["series"]["1"]["mttdl_years"]) == 3

    def test_simulate_json_output(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "300",
            "--max-time", "1e6", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"
        assert payload["scenario"]["question"] == "mttdl"
        result = payload["result"]
        assert result["trials"] == 300
        assert result["censored"] == 0
        assert result["warnings"] == []
        assert result["ci_low"] <= result["value"] <= result["ci_high"]
        assert result["scenario_hash"]
        assert result["wall_time_seconds"] >= 0

    def test_simulate_json_records_warnings(self, capsys):
        assert main([
            "simulate", "--mv", "500", "--ml", "100", "--mrv", "1",
            "--mrl", "1", "--mdl", "5", "--trials", "100",
            "--max-time", "150", "--method", "standard", "--json",
        ]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert result["warnings"]
        assert "censored" in result["warnings"][0]

    def test_scrubbing_story_visible_from_cli(self, capsys):
        # The headline comparison should be reproducible from the CLI:
        # no scrubbing (MDL = ML) vs the scrubbed default.
        main(["mttdl", "--mdl", "280000"])
        unscrubbed = capsys.readouterr().out
        main(["mttdl"])
        scrubbed = capsys.readouterr().out
        assert "31.9" in unscrubbed or "32.0" in unscrubbed
        assert "5106" in scrubbed or "5107" in scrubbed


class TestOptimizeCommand:
    """End-to-end runs of the budget-constrained planner."""

    GRID = [
        "--media", "drive:barracuda", "drive:cheetah",
        "--replicas", "2", "3",
        "--audit-rates", "0", "12", "52",
        "--trials", "300",
    ]

    def test_requires_budget_or_target(self, capsys):
        assert main(["optimize"] + self.GRID) == 2
        assert "target-loss" in capsys.readouterr().err

    def test_text_output_has_frontier_and_recommendation(self, capsys):
        assert main(["optimize", "--budget", "50000"] + self.GRID) == 0
        output = capsys.readouterr().out
        assert "cost-reliability Pareto frontier" in output
        assert "recommended configuration" in output
        assert "search effort" in output
        assert "log y" in output  # the ASCII frontier chart rendered

    def test_recommendation_respects_budget_and_agrees_with_screen(self, capsys):
        assert main(["optimize", "--budget", "20000", "--json"] + self.GRID) == 0
        payload = json.loads(capsys.readouterr().out)
        details = payload["result"]["details"]
        recommended = details["recommended"]
        assert recommended["annual_cost"] <= 20000
        assert recommended["agrees_with_screen"] is True
        assert details["summary"]["candidates"] == 24
        assert details["summary"]["pruned_by_screen"] >= 12
        # Every refined frontier point carries a confidence interval.
        for point in details["frontier"]:
            assert point["simulated"]["ci_low"] <= point["simulated"]["ci_high"]
        # The headline estimate mirrors the recommendation.
        assert payload["result"]["value"] == pytest.approx(
            recommended["simulated"]["mean"]
        )

    def test_target_loss_query(self, capsys):
        assert main(
            ["optimize", "--target-loss", "0.01", "--json"] + self.GRID
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        recommended = payload["result"]["details"]["recommended"]
        assert recommended["simulated"]["mean"] <= 0.01

    def test_infeasible_budget_is_an_error(self, capsys):
        assert main(["optimize", "--budget", "1"] + self.GRID) == 2
        assert "budget" in capsys.readouterr().err

    def test_unknown_medium_is_an_error_not_a_traceback(self, capsys):
        assert main(["optimize", "--budget", "1", "--media", "drive:floppy"]) == 2
        err = capsys.readouterr().err
        assert "unknown medium" in err
        assert "drive:barracuda" in err

    def test_cached_rerun_evaluates_zero_new_candidates(self, capsys, tmp_path):
        command = (
            ["optimize", "--budget", "50000", "--json",
             "--cache-dir", str(tmp_path)] + self.GRID
        )
        assert main(command) == 0
        first = json.loads(capsys.readouterr().out)
        first_details = first["result"]["details"]
        assert (
            first_details["summary"]["new_evaluations"]
            == first_details["summary"]["refined"]
        )
        assert main(command) == 0
        second = json.loads(capsys.readouterr().out)
        second_details = second["result"]["details"]
        assert second_details["summary"]["new_evaluations"] == 0
        assert (
            second_details["summary"]["cache_hits"]
            == second_details["summary"]["refined"]
        )
        assert second_details["frontier"] == first_details["frontier"]
        assert second_details["recommended"] == first_details["recommended"]
        # Two fully-cached reruns are identical modulo wall time (the
        # first run differs in the new_evaluations/cache_hits counters).
        assert main(command) == 0
        third = json.loads(capsys.readouterr().out)
        assert _without_wall_time(third) == _without_wall_time(second)


class TestSweepAuditJson:
    def test_sweep_audit_json_flag_parses(self):
        args = build_parser().parse_args(["sweep-audit", "--json"])
        assert args.json

    def test_sweep_audit_json_output(self, capsys):
        assert main(["sweep-audit", "--rates", "0", "3", "12", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "sweep-audit"
        details = payload["result"]["details"]
        assert details["values"] == [0.0, 3.0, 12.0]
        assert set(details["metrics"]) == {
            "mttdl_hours", "mttdl_years", "mdl_hours",
        }
        assert len(details["metrics"]["mttdl_years"]) == 3
        # Scrubbing more often never hurts the MTTDL.
        years = details["metrics"]["mttdl_years"]
        assert years[0] <= years[1] <= years[2]


class TestFleetCommand:
    """End-to-end runs of the decades-scale fleet simulator."""

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.timeline is None
        assert args.years == 50.0
        assert args.members == 2000
        assert args.seed == 0
        assert args.jobs == 1
        assert not args.json

    def test_text_output_has_curves_and_summary(self, capsys):
        assert main([
            "fleet", "--members", "300", "--years", "20",
            "--refresh-years", "8",
        ]) == 0
        output = capsys.readouterr().out
        assert "fleet outcome" in output
        assert "fleet trajectory" in output
        assert "survival curve" in output
        assert "cumulative cost per member" in output

    def test_json_output_structure(self, capsys):
        assert main([
            "fleet", "--members", "300", "--years", "10",
            "--refresh-years", "4", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "fleet"
        details = payload["result"]["details"]
        assert details["summary"]["members"] == 300
        assert details["summary"]["epochs"] >= 3
        curve = details["survival_curve"]
        assert curve[0] == 1.0
        assert all(b <= a for a, b in zip(curve, curve[1:]))
        assert len(details["cumulative_cost_per_member"]) == len(curve) - 1
        assert details["summary"]["loss_fraction"] == (
            pytest.approx(1.0 - curve[-1])
        )
        # The headline estimate is the fleet loss fraction.
        assert payload["result"]["value"] == pytest.approx(
            details["summary"]["loss_fraction"]
        )

    def test_timeline_file_round_trips_through_the_cli(self, capsys, tmp_path):
        from repro.core.parameters import FaultModel
        from repro.fleet import stationary_timeline

        model = FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)
        path = tmp_path / "timeline.json"
        stationary_timeline(
            model, 2.0, annual_cost_per_member=10.0
        ).to_json(path)
        assert main([
            "fleet", "--timeline", str(path), "--members", "200", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        summary = payload["result"]["details"]["summary"]
        assert summary["years"] == 2.0
        assert summary["epochs"] == 1
        assert summary["losses"] > 0

    def test_seed_changes_the_realisation(self, capsys):
        command = ["fleet", "--members", "300", "--years", "10",
                   "--refresh-years", "4", "--json"]
        assert main(command + ["--seed", "1"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(command + ["--seed", "1"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert main(command + ["--seed", "2"]) == 0
        third = json.loads(capsys.readouterr().out)
        assert _without_wall_time(first) == _without_wall_time(second)
        assert _without_wall_time(third) != _without_wall_time(first)

    def test_missing_timeline_file_is_an_error(self, capsys):
        assert main([
            "fleet", "--timeline", "/nonexistent/t.json", "--members", "10",
        ]) == 2
        assert "timeline file not found" in capsys.readouterr().err

    def test_malformed_timeline_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main([
            "fleet", "--timeline", str(path), "--members", "10",
        ]) == 2
        assert "malformed timeline" in capsys.readouterr().err

    def test_non_object_timeline_epoch_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "epochs.json"
        path.write_text('{"years": 10, "epochs": ["x"]}', encoding="utf-8")
        assert main([
            "fleet", "--timeline", str(path), "--members", "10",
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "'timeline.epochs[0]' must be a JSON object" in err

    def test_unknown_medium_is_an_error(self, capsys):
        assert main(["fleet", "--medium", "drive:floppy"]) == 2
        assert "unknown medium" in capsys.readouterr().err


class TestTelemetry:
    def _simulate(self, trace_path, extra=()):
        return main([
            "simulate", "--trials", "300", "--seed", "3",
            "--max-time", "1e6", "--telemetry", str(trace_path), *extra,
        ])

    def test_telemetry_writes_a_valid_trace(self, capsys, tmp_path):
        from repro import obs

        path = tmp_path / "trace.jsonl"
        assert self._simulate(path) == 0
        capsys.readouterr()
        assert obs.validate_trace(path) > 0
        events = [record["event"] for record in obs.read_trace(path)]
        assert events[0] == "study_start"
        assert events[-1] == "study_end"

    def test_telemetry_does_not_change_the_answer(self, capsys, tmp_path):
        assert main([
            "simulate", "--trials", "300", "--seed", "3",
            "--max-time", "1e6", "--json",
        ]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert self._simulate(tmp_path / "t.jsonl", ("--json",)) == 0
        traced = json.loads(capsys.readouterr().out)
        # The traced run additionally carries the telemetry payload.
        assert "telemetry" in traced["result"]["details"]
        del traced["result"]["details"]["telemetry"]
        assert _without_wall_time(traced) == _without_wall_time(plain)

    def test_trace_subcommand_summarises(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert self._simulate(path) == 0
        capsys.readouterr()
        assert main(["trace", str(path)]) == 0
        output = capsys.readouterr().out
        assert "study run" in output
        assert "phase latency" in output
        assert "kernel" in output

    def test_trace_subcommand_json(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert self._simulate(path) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "trace"
        assert payload["summary"]["records"] > 0
        assert payload["summary"]["studies"][0]["question"] == "mttdl"

    def test_trace_missing_file_is_an_error(self, capsys):
        assert main(["trace", "/nonexistent/trace.jsonl"]) == 2
        assert "trace file not found" in capsys.readouterr().err

    def test_trace_malformed_file_is_an_error(self, capsys, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("{not json\n", encoding="utf-8")
        assert main(["trace", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err
