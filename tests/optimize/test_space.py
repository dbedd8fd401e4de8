"""Tests for the planner's declarative design space."""

import pytest

from repro.core.units import HOURS_PER_YEAR
from repro.storage.drives import drive_catalog
from repro.optimize.space import (
    LATENT_TO_VISIBLE_RATIO,
    CandidateDesign,
    DesignSpace,
    placement_alpha,
    resolve_medium,
)


def candidate(**overrides):
    base = dict(
        medium="drive:cheetah",
        replicas=2,
        audits_per_year=12.0,
        placement="multi",
        dataset_tb=10.0,
    )
    base.update(overrides)
    return CandidateDesign(**base)


class TestResolveMedium:
    def test_explicit_drive_prefix(self):
        resolved = resolve_medium("drive:cheetah")
        assert resolved.kind == "drive"
        assert "Cheetah" in resolved.drive.name

    def test_explicit_media_prefix(self):
        resolved = resolve_medium("media:tape")
        assert resolved.kind == "media"
        assert "tape" in resolved.media.name

    def test_bare_identifier_prefers_drives(self):
        assert resolve_medium("barracuda").kind == "drive"
        assert resolve_medium("tape").kind == "media"

    def test_bare_identifier_is_normalised(self):
        assert resolve_medium("barracuda").identifier == "drive:barracuda"

    def test_unknown_medium_lists_catalog(self):
        with pytest.raises(KeyError, match="drive:cheetah"):
            resolve_medium("floppy")

    def test_wrong_prefix_is_not_found(self):
        with pytest.raises(KeyError):
            resolve_medium("media:cheetah")


class TestDriveFaultModels:
    @pytest.mark.parametrize("name", sorted(drive_catalog()))
    def test_schwarz_ratio_and_full_drive_rebuild(self, name):
        # Latent faults five times as frequent as visible ones (Schwarz
        # et al.), each repaired by reading the whole drive.
        drive = drive_catalog()[name]
        model = resolve_medium(f"drive:{name}").fault_model(3.0, 1.0)
        assert model.mean_time_to_visible == drive.mttf_hours
        assert model.mean_time_to_latent * LATENT_TO_VISIBLE_RATIO == (
            pytest.approx(drive.mttf_hours)
        )
        assert model.mean_repair_visible == drive.full_read_hours()
        assert model.mean_repair_latent == drive.full_read_hours()


class TestPlacementAlpha:
    def test_multi_site_is_fully_independent(self):
        assert placement_alpha("multi", 3) == pytest.approx(1.0)

    def test_single_site_is_strongly_correlated(self):
        assert placement_alpha("single", 3) < 0.01

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError):
            placement_alpha("orbital", 2)


class TestCandidateDesign:
    def test_fault_model_uses_half_audit_interval_for_mdl(self):
        model = candidate(audits_per_year=12.0).fault_model()
        assert model.mean_detect_latent == pytest.approx(HOURS_PER_YEAR / 12.0 / 2.0)

    def test_unaudited_drive_never_detects_latent_faults(self):
        # MDL == ML is the simulators' "no scrubbing" sentinel.
        model = candidate(audits_per_year=0.0).fault_model()
        assert model.mean_detect_latent == pytest.approx(model.mean_time_to_latent)

    def test_drive_latent_ratio(self):
        model = candidate().fault_model()
        assert model.mean_time_to_visible / model.mean_time_to_latent == (
            pytest.approx(LATENT_TO_VISIBLE_RATIO)
        )

    def test_media_candidate_includes_access_latency_in_repairs(self):
        model = candidate(medium="media:tape").fault_model()
        # 72h retrieval + 12h restore
        assert model.mean_repair_visible == pytest.approx(84.0)

    def test_placement_sets_correlation_factor(self):
        assert candidate(placement="multi").fault_model().correlation_factor == 1.0
        assert candidate(placement="single").fault_model().correlation_factor < 0.01

    def test_more_replicas_cost_more(self):
        assert candidate(replicas=3).annual_cost() > candidate(replicas=2).annual_cost()

    def test_site_cost_charged_for_multi_only(self):
        multi = candidate(site_cost_per_year=1000.0)
        single = candidate(placement="single", site_cost_per_year=1000.0)
        assert multi.cost_breakdown().sites_per_year == pytest.approx(1000.0)
        assert single.cost_breakdown().sites_per_year == 0.0

    def test_audits_add_cost(self):
        assert (
            candidate(audits_per_year=52.0).annual_cost()
            > candidate(audits_per_year=0.0).annual_cost()
        )

    def test_key_and_hash_are_stable_and_distinct(self):
        assert candidate().key() == candidate().key()
        assert candidate().content_hash() == candidate().content_hash()
        assert candidate().content_hash() != candidate(replicas=3).content_hash()

    def test_dict_round_trip(self):
        original = candidate(site_cost_per_year=42.0)
        assert CandidateDesign.from_dict(original.as_dict()) == original

    def test_validation(self):
        with pytest.raises(ValueError):
            candidate(replicas=1)
        with pytest.raises(ValueError):
            candidate(audits_per_year=-1.0)
        with pytest.raises(ValueError):
            candidate(placement="orbital")
        with pytest.raises(ValueError):
            candidate(dataset_tb=0.0)
        with pytest.raises(KeyError):
            candidate(medium="drive:floppy")


class TestDesignSpace:
    def test_size_is_grid_product(self):
        space = DesignSpace(
            media=("drive:cheetah", "media:tape"),
            replica_counts=(2, 3),
            audit_rates=(0.0, 12.0),
            placements=("single", "multi"),
        )
        assert space.size == 16
        assert len(list(space.candidates())) == 16

    def test_candidates_are_unique_and_deterministic(self):
        space = DesignSpace()
        first = [c.key() for c in space.candidates()]
        second = [c.key() for c in space.candidates()]
        assert first == second
        assert len(set(first)) == len(first)

    def test_candidates_inherit_space_settings(self):
        space = DesignSpace(dataset_tb=7.0, site_cost_per_year=99.0)
        sample = next(space.candidates())
        assert sample.dataset_tb == 7.0
        assert sample.site_cost_per_year == 99.0

    def test_content_hash_tracks_definition(self):
        assert DesignSpace().content_hash() == DesignSpace().content_hash()
        assert (
            DesignSpace(dataset_tb=11.0).content_hash()
            != DesignSpace().content_hash()
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpace(replica_counts=(1, 2))
        with pytest.raises(ValueError):
            DesignSpace(media=())
        with pytest.raises(ValueError):
            DesignSpace(audit_rates=(-1.0,))
        with pytest.raises(ValueError):
            DesignSpace(placements=("orbital",))
        with pytest.raises(KeyError):
            DesignSpace(media=("drive:floppy",))
