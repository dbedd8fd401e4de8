"""Tests for audit policies and online/offline economics."""

import pytest

from repro.audit.online_offline import (
    audit_bandwidth_fraction,
    audit_induced_fault_rate,
    compare_online_offline,
    evaluate_media_audit,
)
from repro.audit.policies import (
    AuditKind,
    AuditSchedule,
    audits_needed_for_target_mttdl,
    detection_latency,
    periodic_schedule,
)
from repro.core.parameters import FaultModel
from repro.storage.media import OFFLINE_TAPE, ONLINE_DISK


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


class TestSchedules:
    def test_periodic_three_per_year_gives_paper_mdl(self):
        schedule = periodic_schedule(3.0)
        assert detection_latency(schedule) == pytest.approx(1460.0)

    def test_zero_rate_becomes_none_schedule(self):
        schedule = periodic_schedule(0.0)
        assert schedule.kind is AuditKind.NONE
        assert detection_latency(schedule) == float("inf")

    def test_poisson_latency_is_full_interval(self):
        schedule = AuditSchedule(AuditKind.POISSON, audits_per_year=3.0)
        assert detection_latency(schedule) == pytest.approx(2920.0)

    def test_on_access_latency(self):
        schedule = AuditSchedule(AuditKind.ON_ACCESS, audits_per_year=0.5)
        assert detection_latency(schedule) == pytest.approx(2 * 8760.0)

    def test_imperfect_coverage_lengthens_periodic_latency(self):
        perfect = periodic_schedule(3.0, coverage=1.0)
        flaky = periodic_schedule(3.0, coverage=0.5)
        assert detection_latency(flaky) > detection_latency(perfect)

    def test_interval_hours(self):
        assert periodic_schedule(3.0).interval_hours == pytest.approx(2920.0)
        assert periodic_schedule(0.0).interval_hours == float("inf")

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            AuditSchedule(AuditKind.PERIODIC, audits_per_year=0.0)
        with pytest.raises(ValueError):
            AuditSchedule(AuditKind.NONE, audits_per_year=2.0)
        with pytest.raises(ValueError):
            AuditSchedule(AuditKind.PERIODIC, audits_per_year=1.0, coverage=0.0)
        with pytest.raises(ValueError):
            AuditSchedule(AuditKind.PERIODIC, audits_per_year=-1.0)


class TestInversions:
    def test_audits_needed_for_target_mttdl(self):
        target_years = 3000.0
        rate = audits_needed_for_target_mttdl(model(), target_years)
        assert rate is not None and rate > 0
        from repro.core.mttdl import mirrored_mttdl

        achieved = mirrored_mttdl(
            model().with_detection_time(detection_latency(periodic_schedule(rate)))
        )
        assert achieved >= target_years * 8760.0 * 0.99

    def test_unreachable_target_returns_none(self):
        assert audits_needed_for_target_mttdl(model(), 1e12) is None

    def test_already_met_target_needs_no_audits(self):
        assert audits_needed_for_target_mttdl(model(), 1.0) == 0.0


class TestOnlineOffline:
    def test_induced_fault_rate(self):
        assert audit_induced_fault_rate(OFFLINE_TAPE, 4.0) == pytest.approx(0.04)
        assert audit_induced_fault_rate(ONLINE_DISK, 52.0) == 0.0

    def test_bandwidth_fraction(self):
        fraction = audit_bandwidth_fraction(
            capacity_gb=146.0, bandwidth_mb_s=300.0, audits_per_year=52.0
        )
        assert 0.0 < fraction < 0.01

    def test_bandwidth_fraction_validation(self):
        with pytest.raises(ValueError):
            audit_bandwidth_fraction(0.0, 10.0, 1.0)
        with pytest.raises(ValueError):
            audit_bandwidth_fraction(10.0, 10.0, -1.0)

    def test_online_beats_offline_at_affordable_rates(self):
        comparison = compare_online_offline(
            ONLINE_DISK, OFFLINE_TAPE,
            online_audits_per_year=12.0, offline_audits_per_year=1.0,
        )
        assert comparison["online"].mttdl_years > 5 * comparison["offline"].mttdl_years

    def test_offline_auditing_costs_more_per_pass(self):
        comparison = compare_online_offline(
            ONLINE_DISK, OFFLINE_TAPE,
            online_audits_per_year=12.0, offline_audits_per_year=12.0,
        )
        assert (
            comparison["offline"].annual_audit_cost
            > 10 * comparison["online"].annual_audit_cost
        )

    def test_offline_audits_consume_staff_hours(self):
        result = evaluate_media_audit(OFFLINE_TAPE, audits_per_year=4.0)
        assert result.staff_hours_per_year > 0
        assert evaluate_media_audit(ONLINE_DISK, 4.0).staff_hours_per_year == 0

    def test_handling_faults_fold_into_visible_rate(self):
        gentle = evaluate_media_audit(OFFLINE_TAPE, audits_per_year=1.0)
        rough = evaluate_media_audit(OFFLINE_TAPE, audits_per_year=200.0)
        assert rough.audit_induced_faults_per_year > gentle.audit_induced_faults_per_year

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            evaluate_media_audit(ONLINE_DISK, audits_per_year=-1.0)
        with pytest.raises(ValueError):
            audit_induced_fault_rate(ONLINE_DISK, -1.0)
