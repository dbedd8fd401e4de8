"""Integration tests: workflows that cross subpackage boundaries.

These exercise the same paths as the examples and benchmarks: threat
profiles feeding the analytic model, placement feeding the correlation
factor, media specs feeding audit economics, and the three evaluation
methods (closed form, CTMC, Monte-Carlo) agreeing on a shared parameter
set.
"""

import pytest

from repro.analysis.compare import compare_models
from repro.analysis.report import scenario_experiment_report
from repro.analysis.sweep import sweep_audit_rate
from repro.audit.online_offline import compare_online_offline
from repro.audit.policies import audits_needed_for_target_mttdl
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.probability import probability_of_loss
from repro.core.scenarios import cheetah_scrubbed_scenario
from repro.core.strategies import Strategy, evaluate_all_strategies
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import mirrored_mttdl_markov
from repro.simulation.estimators import run_mttdl
from repro.storage.drives import BARRACUDA_ST3200822A
from repro.storage.media import OFFLINE_TAPE, ONLINE_DISK, fault_model_for_media
from repro.storage.site import assess_independence, diversified_placement, single_site_placement
from repro.threats.correlation_sources import correlation_pressure
from repro.threats.taxonomy import all_threat_profiles, combined_fault_model


class TestThreatsToModelPipeline:
    def test_threat_registry_produces_usable_model(self):
        model = combined_fault_model()
        mttdl = mirrored_mttdl(model)
        assert 0 < mttdl < float("inf")
        # The full end-to-end threat mix is brutal: a mirrored pair with a
        # shared administrative/organisational fate loses data within a
        # handful of years, so the 50-year loss probability saturates.
        assert 0 < probability_of_loss(mttdl, 50 * HOURS_PER_YEAR) <= 1

    def test_threat_alpha_consistent_between_views(self):
        pressure = correlation_pressure(all_threat_profiles())
        model = combined_fault_model()
        assert model.correlation_factor == pytest.approx(pressure.implied_alpha)

    def test_end_to_end_threats_much_worse_than_media_only(self):
        media_only = cheetah_scrubbed_scenario().model
        end_to_end = combined_fault_model()
        assert mirrored_mttdl(end_to_end) < mirrored_mttdl(media_only)


class TestPlacementToModelPipeline:
    def test_placement_alpha_feeds_mttdl(self):
        scenario = cheetah_scrubbed_scenario()
        colocated_alpha = assess_independence(single_site_placement(2)).effective_alpha
        diversified_alpha = assess_independence(diversified_placement(2)).effective_alpha
        colocated = mirrored_mttdl(scenario.model.with_correlation(colocated_alpha))
        diversified = mirrored_mttdl(scenario.model.with_correlation(diversified_alpha))
        assert diversified > 10 * colocated


class TestDriveToAuditPipeline:
    def test_drive_spec_drives_a_planning_loop(self):
        # Build a model from the consumer drive, then find the audit rate
        # that achieves a 1000-year MTTDL, and confirm it does.
        model = FaultModel(
            mean_time_to_visible=BARRACUDA_ST3200822A.mttf_hours,
            mean_time_to_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,
            mean_repair_visible=BARRACUDA_ST3200822A.full_read_hours(),
            mean_repair_latent=BARRACUDA_ST3200822A.full_read_hours(),
            mean_detect_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,
            correlation_factor=1.0,
        )
        rate = audits_needed_for_target_mttdl(model, 1000.0)
        assert rate is not None
        achieved = sweep_audit_rate(model, [rate]).metric("mttdl_years")[0]
        assert achieved >= 1000.0 * 0.99

    def test_media_catalog_feeds_audit_comparison(self):
        comparison = compare_online_offline(ONLINE_DISK, OFFLINE_TAPE, 12.0, 1.0)
        disk_model = fault_model_for_media(ONLINE_DISK, 12.0)
        assert comparison["online"].mttdl_years == pytest.approx(
            mirrored_mttdl(disk_model) / HOURS_PER_YEAR
        )


class TestStrategyAndScenarioPipeline:
    def test_strategy_evaluation_consistent_with_direct_model_edits(self):
        model = cheetah_scrubbed_scenario().model.with_correlation(0.5)
        outcomes = evaluate_all_strategies(model, factor=2.0)
        direct = mirrored_mttdl(model.with_detection_time(model.mean_detect_latent / 2))
        assert outcomes[Strategy.REDUCE_MDL].improved_mttdl_hours == pytest.approx(direct)

    def test_experiment_report_round_trip(self):
        report = scenario_experiment_report()
        rendered = report.render()
        assert "E1" in rendered and "E4" in rendered
        assert all(record.shape_holds for record in report.records)


class TestThreeWayValidation:
    """The closed form, the chain, and the simulator on one model."""

    MODEL = FaultModel(
        mean_time_to_visible=2000.0,
        mean_time_to_latent=400.0,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=20.0,
        correlation_factor=1.0,
    )

    def test_markov_and_monte_carlo_agree(self):
        markov = mirrored_mttdl_markov(self.MODEL)
        estimate = run_mttdl(self.MODEL, trials=150, seed=7, max_time=3e6)
        assert estimate.censored == 0
        assert estimate.mean == pytest.approx(markov, rel=0.3)

    def test_closed_form_within_documented_factor(self):
        values = compare_models(self.MODEL).as_dict().values()
        assert max(values) / min(values) < 4.0

    def test_correlation_ordering_consistent_across_methods(self):
        correlated = self.MODEL.with_correlation(0.1)
        analytic_ratio = mirrored_mttdl(correlated) / mirrored_mttdl(self.MODEL)
        markov_ratio = mirrored_mttdl_markov(correlated) / mirrored_mttdl_markov(
            self.MODEL
        )
        mc_base = run_mttdl(self.MODEL, trials=80, seed=9, max_time=3e6).mean
        mc_corr = run_mttdl(correlated, trials=80, seed=9, max_time=3e6).mean
        assert analytic_ratio < 1.0
        assert markov_ratio < 1.0
        assert mc_corr < mc_base
