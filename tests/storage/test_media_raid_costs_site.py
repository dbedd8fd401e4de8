"""Tests for media classes, RAID baselines, the cost model, and placement."""

import pytest

from repro.core.mttdl import mirrored_mttdl
from repro.storage.costs import (
    CostModel,
    compare_drive_costs,
    cost_model_for_drive,
    cost_model_for_media,
    replication_cost,
)
from repro.storage.drives import BARRACUDA_ST3200822A, CHEETAH_15K4
from repro.storage.media import (
    OFFLINE_TAPE,
    ONLINE_DISK,
    OPTICAL_CDROM,
    MediaSpec,
    fault_model_for_media,
    media_catalog,
)
from repro.storage.raid import (
    RaidLevel,
    raid0_mttdl,
    raid1_mttdl,
    raid5_mttdl,
    raid6_mttdl,
    raid_mttdl,
    raid_with_latent_faults_mttdl,
)
from repro.storage.site import (
    assess_independence,
    diversified_placement,
    effective_alpha,
    single_site_placement,
)


class TestMedia:
    def test_catalog_contents(self):
        catalog = media_catalog()
        assert set(catalog) == {"disk", "tape", "optical"}

    def test_disk_is_online(self):
        assert ONLINE_DISK.is_online
        assert not OFFLINE_TAPE.is_online

    def test_offline_audit_includes_access_latency(self):
        assert OFFLINE_TAPE.effective_audit_hours() > OFFLINE_TAPE.audit_hours
        assert ONLINE_DISK.effective_audit_hours() == ONLINE_DISK.audit_hours

    def test_online_media_support_far_more_audits(self):
        assert ONLINE_DISK.max_audits_per_year() > 50 * OFFLINE_TAPE.max_audits_per_year()

    def test_annual_audit_cost_scales_linearly(self):
        assert OFFLINE_TAPE.annual_audit_cost(4.0) == pytest.approx(480.0)

    def test_fault_model_for_media_uses_half_audit_interval(self):
        model = fault_model_for_media(ONLINE_DISK, audits_per_year=3.0)
        assert model.mean_detect_latent == pytest.approx(1460.0)

    def test_fault_model_zero_audits_uses_latent_mean(self):
        model = fault_model_for_media(OFFLINE_TAPE, audits_per_year=0.0)
        assert model.mean_detect_latent == OFFLINE_TAPE.mean_time_to_latent

    def test_disk_beats_tape_at_typical_audit_rates(self):
        # Disk audited monthly vs tape audited yearly: the paper's
        # disk-over-tape conclusion.
        disk = mirrored_mttdl(fault_model_for_media(ONLINE_DISK, 12.0))
        tape = mirrored_mttdl(fault_model_for_media(OFFLINE_TAPE, 1.0))
        assert disk > 5 * tape

    def test_optical_media_worst_latent_mean_time(self):
        assert OPTICAL_CDROM.mean_time_to_latent < OFFLINE_TAPE.mean_time_to_latent
        assert OPTICAL_CDROM.mean_time_to_latent < ONLINE_DISK.mean_time_to_latent

    def test_validation(self):
        with pytest.raises(ValueError):
            MediaSpec(
                "bad", ONLINE_DISK.media_class, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0
            )
        with pytest.raises(ValueError):
            fault_model_for_media(ONLINE_DISK, audits_per_year=-1.0)


class TestRaid:
    MTTF = 1.0e6
    MTTR = 24.0

    def test_raid0_first_fault_loses_data(self):
        assert raid0_mttdl(self.MTTF, 8) == pytest.approx(self.MTTF / 8)

    def test_raid1_two_way_closed_form(self):
        assert raid1_mttdl(self.MTTF, self.MTTR, 2) == pytest.approx(
            self.MTTF ** 2 / (2 * self.MTTR)
        )

    def test_raid5_closed_form(self):
        disks = 8
        assert raid5_mttdl(self.MTTF, self.MTTR, disks) == pytest.approx(
            self.MTTF ** 2 / (disks * (disks - 1) * self.MTTR)
        )

    def test_raid6_beats_raid5(self):
        assert raid6_mttdl(self.MTTF, self.MTTR, 8) > 100 * raid5_mttdl(
            self.MTTF, self.MTTR, 8
        )

    def test_dispatch(self):
        assert raid_mttdl(RaidLevel.RAID5, self.MTTF, self.MTTR, 8) == raid5_mttdl(
            self.MTTF, self.MTTR, 8
        )

    def test_latent_faults_collapse_raid5_reliability(self):
        clean = raid5_mttdl(self.MTTF, self.MTTR, 8)
        with_latent = raid_with_latent_faults_mttdl(
            self.MTTF, self.MTTR, 8, latent_mttf=self.MTTF / 5.0
        )
        assert with_latent < clean / 10

    def test_minimum_disk_counts_enforced(self):
        with pytest.raises(ValueError):
            raid5_mttdl(self.MTTF, self.MTTR, 2)
        with pytest.raises(ValueError):
            raid6_mttdl(self.MTTF, self.MTTR, 3)
        with pytest.raises(ValueError):
            raid1_mttdl(self.MTTF, self.MTTR, 1)


class TestCosts:
    def cost_model(self):
        return CostModel(
            hardware_cost_per_tb=570.0,
            hardware_lifetime_years=5.0,
            power_cooling_per_tb_year=50.0,
            admin_cost_per_replica_year=500.0,
            site_cost_per_year=1000.0,
            audit_cost_per_pass=1.0,
            repair_cost_per_event=10.0,
        )

    def test_breakdown_total_is_sum_of_parts(self):
        breakdown = replication_cost(
            self.cost_model(), dataset_tb=10.0, replicas=3,
            audits_per_replica_year=12.0, expected_repairs_per_replica_year=0.1,
        )
        assert breakdown.total_per_year == pytest.approx(
            sum(value for key, value in breakdown.as_dict().items() if key != "total")
        )

    def test_more_replicas_cost_more(self):
        two = replication_cost(self.cost_model(), 10.0, 2).total_per_year
        four = replication_cost(self.cost_model(), 10.0, 4).total_per_year
        assert four > two

    def test_single_site_avoids_site_cost(self):
        spread = replication_cost(self.cost_model(), 10.0, 3, independent_sites=3)
        colocated = replication_cost(self.cost_model(), 10.0, 3, independent_sites=1)
        assert spread.sites_per_year > colocated.sites_per_year

    def test_enterprise_design_much_more_expensive(self):
        comparison = compare_drive_costs(
            BARRACUDA_ST3200822A, CHEETAH_15K4, dataset_tb=10.0,
            consumer_replicas=4, enterprise_replicas=2,
        )
        assert comparison["cost_ratio_enterprise_to_consumer"] > 1.5

    def test_cost_model_for_drive_uses_price(self):
        model = cost_model_for_drive(BARRACUDA_ST3200822A)
        assert model.hardware_cost_per_tb == pytest.approx(570.0)

    def test_cost_model_for_media_offline_has_no_power(self):
        model = cost_model_for_media(OFFLINE_TAPE)
        assert model.power_cooling_per_tb_year == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            replication_cost(self.cost_model(), 0.0, 2)
        with pytest.raises(ValueError):
            replication_cost(self.cost_model(), 1.0, 0)
        with pytest.raises(ValueError):
            replication_cost(self.cost_model(), 1.0, 2, independent_sites=3)
        with pytest.raises(ValueError):
            CostModel(hardware_cost_per_tb=-1.0)


class TestPlacementIndependence:
    def test_single_site_placement_is_heavily_correlated(self):
        assessment = assess_independence(single_site_placement(3))
        assert assessment.mean_shared_fraction > 0.9
        assert assessment.effective_alpha < 0.01

    def test_diversified_placement_is_independent(self):
        assessment = assess_independence(diversified_placement(3))
        assert assessment.mean_shared_fraction == pytest.approx(0.0)
        assert assessment.effective_alpha == pytest.approx(1.0)

    def test_pairwise_scores_cover_all_pairs(self):
        assessment = assess_independence(diversified_placement(4))
        assert len(assessment.pairwise_scores) == 6

    def test_effective_alpha_monotone_in_sharing(self):
        assert effective_alpha(0.0) > effective_alpha(0.5) > effective_alpha(1.0)

    def test_effective_alpha_bounds(self):
        assert effective_alpha(1.0, alpha_floor=1e-3) == pytest.approx(1e-3)
        with pytest.raises(ValueError):
            effective_alpha(1.5)
        with pytest.raises(ValueError):
            effective_alpha(0.5, alpha_floor=0.0)

    def test_assessment_needs_two_sites(self):
        with pytest.raises(ValueError):
            assess_independence(single_site_placement(1))

    def test_placement_factories_validate(self):
        with pytest.raises(ValueError):
            single_site_placement(0)
        with pytest.raises(ValueError):
            diversified_placement(3, regions=["only-one"])
