"""Tests for the collection-level archive model."""

import pytest

from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.storage.archive import (
    ArchiveCollection,
    access_based_detection_is_sufficient,
    audit_rate_for_loss_budget,
    collection_reliability,
    on_access_detection_latency,
    required_audit_bandwidth,
)


def photo_collection(**overrides):
    base = dict(
        object_count=10_000_000,
        mean_object_size_mb=2.0,
        accesses_per_object_year=0.05,
        replicas=2,
    )
    base.update(overrides)
    return ArchiveCollection(**base)


def object_model(**overrides):
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


class TestCollection:
    def test_total_size(self):
        assert photo_collection().total_size_tb == pytest.approx(20.0)

    def test_mean_access_interval(self):
        collection = photo_collection(accesses_per_object_year=0.05)
        assert collection.mean_access_interval_hours == pytest.approx(20 * 8760.0)

    def test_zero_access_rate_is_never_accessed(self):
        assert photo_collection(accesses_per_object_year=0.0).mean_access_interval_hours == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            photo_collection(object_count=0)
        with pytest.raises(ValueError):
            photo_collection(mean_object_size_mb=0.0)
        with pytest.raises(ValueError):
            photo_collection(accesses_per_object_year=-1.0)
        with pytest.raises(ValueError):
            photo_collection(replicas=0)


class TestCollectionReliability:
    def test_expected_losses_scale_with_object_count(self):
        small = collection_reliability(
            photo_collection(object_count=1000), object_model()
        )
        large = collection_reliability(
            photo_collection(object_count=1_000_000), object_model()
        )
        assert large.expected_objects_lost == pytest.approx(
            1000 * small.expected_objects_lost, rel=1e-6
        )

    def test_scrubbing_reduces_expected_losses(self):
        scrubbed = collection_reliability(photo_collection(), object_model())
        unscrubbed = collection_reliability(
            photo_collection(), object_model(mean_detect_latent=2.8e5)
        )
        assert scrubbed.expected_objects_lost < unscrubbed.expected_objects_lost / 10

    def test_survival_probability_below_one_for_large_collections(self):
        result = collection_reliability(photo_collection(), object_model())
        assert 0.0 <= result.collection_survival_probability < 1.0

    def test_certain_per_object_loss_gives_zero_survival(self):
        lossy = object_model(
            mean_time_to_visible=10.0,
            mean_time_to_latent=10.0,
            mean_detect_latent=10.0,
            mean_repair_visible=10.0,
            mean_repair_latent=10.0,
        )
        result = collection_reliability(photo_collection(object_count=100), lossy)
        assert result.collection_survival_probability == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_mission(self):
        with pytest.raises(ValueError):
            collection_reliability(photo_collection(), object_model(), mission_years=0.0)


class TestAuditThroughput:
    def test_required_bandwidth_round_trip(self):
        # One pass per 2 x MDL: auditing 1 TB every 2.78 hours (MDL
        # 1.39 hours) takes 100 MB/s.
        collection = photo_collection(object_count=1_000_000, mean_object_size_mb=1.0)
        pass_hours = 1e6 / 100.0 / 3600.0
        bandwidth = required_audit_bandwidth(
            collection, target_mdl_hours=pass_hours / 2.0
        )
        assert bandwidth == pytest.approx(100.0, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            required_audit_bandwidth(photo_collection(), 0.0)


class TestAccessBasedDetection:
    def test_rare_access_is_not_sufficient(self):
        # The paper's point: archival objects are accessed too rarely for
        # access-triggered checking to bound losses.
        assert not access_based_detection_is_sufficient(
            photo_collection(accesses_per_object_year=0.05), object_model()
        )

    def test_hot_data_can_get_away_with_it(self):
        hot = photo_collection(accesses_per_object_year=1000.0, object_count=10_000)
        assert access_based_detection_is_sufficient(hot, object_model())

    def test_validation(self):
        with pytest.raises(ValueError):
            access_based_detection_is_sufficient(
                photo_collection(), object_model(), acceptable_loss_fraction=0.0
            )


class TestAuditRateForLossBudget:
    def test_returned_rate_meets_budget(self):
        collection = photo_collection(object_count=100_000)
        rate = audit_rate_for_loss_budget(
            collection, object_model(), acceptable_loss_fraction=1e-4
        )
        assert rate is not None
        mdl = HOURS_PER_YEAR / rate / 2.0 if rate > 0 else object_model().mean_time_to_latent
        adjusted = object_model().with_detection_time(mdl)
        result = collection_reliability(collection, adjusted)
        assert result.expected_objects_lost / collection.object_count <= 1e-4 * 1.01

    def test_impossible_budget_returns_none(self):
        # Even daily audits cannot push the per-object loss probability to
        # ~zero for an astronomically strict budget.
        collection = photo_collection()
        assert (
            audit_rate_for_loss_budget(
                collection, object_model(), acceptable_loss_fraction=1e-12
            )
            is None
        )

    def test_loose_budget_needs_no_audits(self):
        collection = photo_collection(object_count=100)
        rate = audit_rate_for_loss_budget(
            collection, object_model(), acceptable_loss_fraction=0.9
        )
        assert rate == 0.0
