"""Tests for the threat taxonomy, correlation sources, and event timelines."""

import pytest

from repro.core.faults import DEFAULT_TYPE_FOR_CLASS, FaultClass, FaultType
from repro.threats.correlation_sources import (
    correlation_pressure,
    dominant_correlation_sources,
    implied_alpha_from_reach,
    mitigation_effect,
)
from repro.threats.events import (
    ThreatEventGenerator,
    sample_threat_timeline,
    summarize_timeline,
)
from repro.threats.taxonomy import (
    THREAT_REGISTRY,
    all_threat_profiles,
    combined_fault_model,
)


class TestRegistry:
    def test_every_paper_threat_class_has_a_profile(self):
        assert set(THREAT_REGISTRY) == set(FaultClass)

    @pytest.mark.parametrize("fault_class", list(FaultClass))
    def test_profile_matches_the_default_fault_type(self, fault_class):
        profile = THREAT_REGISTRY[fault_class]
        assert profile.fault_class is fault_class
        assert profile.fault_type is DEFAULT_TYPE_FOR_CLASS[fault_class]

    def test_profiles_are_self_describing(self):
        for profile in all_threat_profiles():
            assert profile.description
            assert profile.example
            assert profile.mitigations

    def test_visible_threats_have_zero_detection_time(self):
        for profile in all_threat_profiles():
            if profile.fault_type is FaultType.VISIBLE:
                assert profile.mean_detection_time == 0.0

    def test_latent_threats_have_positive_detection_time(self):
        for profile in all_threat_profiles():
            if profile.fault_type is FaultType.LATENT:
                assert profile.mean_detection_time > 0.0

    def test_media_fault_profile_uses_paper_derived_rates(self):
        media = THREAT_REGISTRY[FaultClass.MEDIA_FAULT]
        assert media.mean_time_to_occurrence == pytest.approx(2.8e5)
        assert media.mean_detection_time == pytest.approx(1460.0)

    def test_obsolescence_threats_are_decade_scale(self):
        for fault_class in (
            FaultClass.MEDIA_OBSOLESCENCE,
            FaultClass.SOFTWARE_OBSOLESCENCE,
            FaultClass.LOSS_OF_CONTEXT,
        ):
            profile = THREAT_REGISTRY[fault_class]
            assert profile.mean_time_to_occurrence >= 5 * 8760.0

    def test_format_obsolescence_hits_every_replica(self):
        assert (
            THREAT_REGISTRY[FaultClass.SOFTWARE_OBSOLESCENCE].correlation_reach == 1.0
        )

    def test_rate_per_year(self):
        profile = THREAT_REGISTRY[FaultClass.MEDIA_FAULT]
        assert profile.rate_per_year == pytest.approx(8760.0 / 2.8e5)


class TestCombinedFaultModel:
    def test_combined_model_is_valid(self):
        model = combined_fault_model()
        assert model.mean_time_to_visible > 0
        assert model.mean_time_to_latent > 0
        assert 0 < model.correlation_factor <= 1

    def test_combined_latent_rate_at_least_each_contributor(self):
        # Rates add, so the combined latent mean time cannot exceed the
        # mean time of any single contributing latent threat.
        model = combined_fault_model()
        latent_profiles = [p for p in all_threat_profiles() if p.is_latent]
        assert model.mean_time_to_latent <= min(
            p.mean_time_to_occurrence for p in latent_profiles
        )

    def test_explicit_correlation_override(self):
        model = combined_fault_model(correlation_factor=0.5)
        assert model.correlation_factor == 0.5

    def test_requires_both_fault_types(self):
        latent_only = [p for p in all_threat_profiles() if p.is_latent]
        with pytest.raises(ValueError):
            combined_fault_model(latent_only)

    def test_requires_at_least_one_profile(self):
        with pytest.raises(ValueError):
            combined_fault_model([])


class TestCorrelationPressure:
    def test_alpha_mapping_extremes(self):
        assert implied_alpha_from_reach(0.0) == 1.0
        assert implied_alpha_from_reach(1.0, alpha_floor=1e-3) == pytest.approx(1e-3)

    def test_pressure_weighted_reach_in_unit_interval(self):
        pressure = correlation_pressure(all_threat_profiles())
        assert 0.0 <= pressure.weighted_reach <= 1.0

    def test_per_threat_contributions_sorted(self):
        pressure = correlation_pressure(all_threat_profiles())
        contributions = [value for _, value in pressure.per_threat]
        assert contributions == sorted(contributions, reverse=True)

    def test_dominant_sources_returned_in_order(self):
        top = dominant_correlation_sources(all_threat_profiles(), top=3)
        assert len(top) == 3

    def test_mitigation_raises_alpha(self):
        profiles = all_threat_profiles()
        target = dominant_correlation_sources(profiles, top=1)[0]
        before, after = mitigation_effect(profiles, target, reach_reduction=0.9)
        assert after > before

    def test_mitigation_requires_member_profile(self):
        subset = [
            THREAT_REGISTRY[FaultClass.LARGE_SCALE_DISASTER],
            THREAT_REGISTRY[FaultClass.HUMAN_ERROR],
        ]
        outsider = THREAT_REGISTRY[FaultClass.MEDIA_FAULT]
        with pytest.raises(ValueError):
            mitigation_effect(subset, outsider)

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            correlation_pressure([])

    def test_bad_reach_rejected(self):
        with pytest.raises(ValueError):
            implied_alpha_from_reach(1.5)


class TestThreatTimelines:
    def test_timeline_sorted_by_time(self):
        events = sample_threat_timeline(horizon_years=50.0, seed=1)
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_timeline_reproducible(self):
        a = sample_threat_timeline(horizon_years=20.0, seed=5)
        b = sample_threat_timeline(horizon_years=20.0, seed=5)
        assert len(a) == len(b)
        assert all(x.time == y.time for x, y in zip(a, b))

    def test_events_within_horizon(self):
        events = sample_threat_timeline(horizon_years=10.0, seed=2)
        assert all(event.time <= 10.0 * 8760.0 for event in events)

    def test_fifty_year_archive_sees_many_media_faults(self):
        events = sample_threat_timeline(horizon_years=50.0, replicas=3, seed=3)
        media = [e for e in events if e.fault_class is FaultClass.MEDIA_FAULT]
        assert len(media) >= 1

    def test_latent_events_have_positive_detection_delay(self):
        events = sample_threat_timeline(horizon_years=50.0, seed=4)
        for event in events:
            if event.is_latent:
                assert event.detected_at >= event.time

    def test_replicas_affected_bounded(self):
        events = sample_threat_timeline(horizon_years=50.0, replicas=4, seed=6)
        assert all(1 <= event.replicas_affected <= 4 for event in events)

    def test_summary_counts(self):
        events = sample_threat_timeline(horizon_years=50.0, seed=7)
        summary = summarize_timeline(events)
        assert summary["total"] == len(events)
        assert 0.0 <= summary["latent_fraction"] <= 1.0
        assert summary["multi_replica_events"] <= summary["total"]

    def test_empty_summary(self):
        summary = summarize_timeline([])
        assert summary["total"] == 0

    def test_generator_validation(self):
        with pytest.raises(ValueError):
            ThreatEventGenerator(profiles=[], replicas=3)
        with pytest.raises(ValueError):
            ThreatEventGenerator(replicas=0)
        with pytest.raises(ValueError):
            ThreatEventGenerator().timeline(0.0)
