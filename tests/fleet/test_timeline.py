"""Tests for fleet timeline declarations, builders, and serialisation."""

import math

import pytest

from repro.core.migration import CAMERA_RAW, FormatRisk
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.fleet.timeline import (
    FleetEpoch,
    FleetTimeline,
    MigrationEvent,
    RegionalShockModel,
    generation_refresh_timeline,
    shock_model_from_threats,
    stationary_timeline,
    timeline_from_recommendation,
)
from repro.storage.site import diversified_placement, single_site_placement
from repro.threats.taxonomy import THREAT_REGISTRY


def fast_model(**overrides):
    base = dict(
        mean_time_to_visible=500.0,
        mean_time_to_latent=100.0,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=5.0,
        correlation_factor=1.0,
    )
    base.update(overrides)
    return FaultModel(**base)


class TestValidation:
    def test_first_epoch_must_start_at_zero(self):
        with pytest.raises(ValueError):
            FleetTimeline(
                years=10.0, epochs=(FleetEpoch(1.0, fast_model()),)
            )

    def test_epoch_starts_must_increase(self):
        with pytest.raises(ValueError):
            FleetTimeline(
                years=10.0,
                epochs=(
                    FleetEpoch(0.0, fast_model()),
                    FleetEpoch(5.0, fast_model()),
                    FleetEpoch(5.0, fast_model()),
                ),
            )

    def test_epoch_past_horizon_rejected(self):
        with pytest.raises(ValueError):
            FleetTimeline(
                years=10.0,
                epochs=(
                    FleetEpoch(0.0, fast_model()),
                    FleetEpoch(10.0, fast_model()),
                ),
            )

    def test_migration_past_horizon_rejected(self):
        with pytest.raises(ValueError):
            FleetTimeline(
                years=10.0,
                epochs=(FleetEpoch(0.0, fast_model()),),
                migrations=(MigrationEvent(10.0, CAMERA_RAW),),
            )

    def test_needs_at_least_one_epoch(self):
        with pytest.raises(ValueError):
            FleetTimeline(years=10.0, epochs=())

    def test_epoch_rejects_bad_hazard(self):
        with pytest.raises(ValueError):
            FleetEpoch(0.0, fast_model(), hazard_multiplier=0.0)

    def test_shock_model_bounds(self):
        with pytest.raises(ValueError):
            RegionalShockModel(rate_per_year=-1.0)
        with pytest.raises(ValueError):
            RegionalShockModel(rate_per_year=1.0, replica_penetration=1.5)
        with pytest.raises(ValueError):
            RegionalShockModel(rate_per_year=1.0, regions=0)


class TestStructure:
    def timeline(self):
        return FleetTimeline(
            years=30.0,
            epochs=(
                FleetEpoch(0.0, fast_model(), label="a"),
                FleetEpoch(10.0, fast_model(), label="b"),
                FleetEpoch(20.0, fast_model(), label="c"),
            ),
        )

    def test_epoch_at_picks_the_epoch_in_force(self):
        timeline = self.timeline()
        assert timeline.epoch_at(0.0).label == "a"
        assert timeline.epoch_at(9.99).label == "a"
        assert timeline.epoch_at(10.0).label == "b"
        assert timeline.epoch_at(29.0).label == "c"
        with pytest.raises(ValueError):
            timeline.epoch_at(31.0)

    def test_spans_partition_the_horizon(self):
        spans = self.timeline().spans_hours()
        assert spans[0][1] == 0.0
        assert spans[-1][2] == 30.0 * HOURS_PER_YEAR
        for (_, _, end), (_, start, _) in zip(spans, spans[1:]):
            assert end == start

    def test_effective_model_folds_the_hazard_multiplier(self):
        epoch = FleetEpoch(0.0, fast_model(), hazard_multiplier=4.0)
        effective = epoch.effective_model()
        assert effective.mean_time_to_visible == pytest.approx(125.0)
        assert effective.mean_time_to_latent == pytest.approx(25.0)
        # Repairs and detection are machinery, not hazard.
        assert effective.mean_repair_visible == 1.0
        assert effective.mean_detect_latent == 5.0

    def test_migration_window_loss_probability(self):
        risk = FormatRisk("x", 8.0, 5.0, 1.0)
        event = MigrationEvent(5.0, risk)
        assert event.loss_probability == pytest.approx(1.0 / 6.0)


class TestCostSchedule:
    def test_stationary_cost_is_flat(self):
        timeline = stationary_timeline(
            fast_model(), 10.0, annual_cost_per_member=100.0
        )
        costs = timeline.base_cost_by_year()
        assert costs[:10] == pytest.approx([100.0] * 10)
        assert costs.sum() == pytest.approx(1000.0)

    def test_migration_cost_lands_in_its_year(self):
        timeline = FleetTimeline(
            years=10.0,
            epochs=(
                FleetEpoch(0.0, fast_model(), annual_cost_per_member=10.0),
            ),
            migrations=(
                MigrationEvent(5.5, CAMERA_RAW, cost_per_member=77.0),
            ),
        )
        costs = timeline.base_cost_by_year()
        assert costs[5] == pytest.approx(87.0)
        assert costs[4] == pytest.approx(10.0)

    def test_epoch_change_prorates_partial_years(self):
        timeline = FleetTimeline(
            years=2.0,
            epochs=(
                FleetEpoch(0.0, fast_model(), annual_cost_per_member=100.0),
                FleetEpoch(0.5, fast_model(), annual_cost_per_member=200.0),
            ),
        )
        costs = timeline.base_cost_by_year()
        assert costs[0] == pytest.approx(0.5 * 100.0 + 0.5 * 200.0)
        assert costs[1] == pytest.approx(200.0)


class TestSerialisation:
    def rich_timeline(self):
        shocks = RegionalShockModel(
            rate_per_year=0.1, regions=3, replica_penetration=0.4, latent=True
        )
        return FleetTimeline(
            years=20.0,
            replicas=3,
            label="rich",
            epochs=(
                FleetEpoch(
                    0.0,
                    fast_model(),
                    audits_per_year=12.0,
                    annual_cost_per_member=42.0,
                    shocks=shocks,
                    label="fresh",
                ),
                FleetEpoch(
                    12.0,
                    fast_model(correlation_factor=0.5),
                    hazard_multiplier=2.5,
                    label="aged",
                ),
            ),
            migrations=(
                MigrationEvent(8.0, CAMERA_RAW, cost_per_member=5.0),
            ),
        )

    def test_roundtrip_preserves_everything(self):
        timeline = self.rich_timeline()
        clone = FleetTimeline.from_dict(timeline.as_dict())
        assert clone == timeline
        assert clone.content_hash() == timeline.content_hash()

    def test_json_roundtrip_via_file(self, tmp_path):
        timeline = self.rich_timeline()
        path = tmp_path / "timeline.json"
        timeline.to_json(path)
        assert FleetTimeline.from_json(path) == timeline
        # And straight from the JSON text.
        assert FleetTimeline.from_json(timeline.to_json()) == timeline

    def test_content_hash_tracks_changes(self):
        timeline = self.rich_timeline()
        other = FleetTimeline.from_dict(
            {**timeline.as_dict(), "years": 21.0}
        )
        assert other.content_hash() != timeline.content_hash()

    @pytest.mark.parametrize("risk", ["x", ["camera RAW", 8.0]])
    def test_non_object_migration_risk_names_its_path(self, risk):
        payload = self.rich_timeline().as_dict()
        payload["migrations"][0]["risk"] = risk
        with pytest.raises(
            ValueError, match=r"'timeline\.migrations\[0\]\.risk'"
        ):
            FleetTimeline.from_dict(payload)

    @pytest.mark.parametrize("scheme", ["6,4", [6, 4]])
    def test_non_object_scheme_names_its_path(self, scheme):
        payload = {**self.rich_timeline().as_dict(), "scheme": scheme}
        with pytest.raises(ValueError, match=r"'timeline\.scheme'"):
            FleetTimeline.from_dict(payload)


class TestBuilders:
    def test_stationary_timeline_is_one_epoch(self):
        timeline = stationary_timeline(fast_model(), 50.0, replicas=3)
        assert len(timeline.epochs) == 1
        assert timeline.replicas == 3
        assert timeline.epochs[0].hazard_multiplier == 1.0

    def test_generation_refresh_epoch_structure(self):
        timeline = generation_refresh_timeline(
            years=50.0,
            refresh_every_years=15.0,
            aging_onset_fraction=0.6,
            aging_hazard_multiplier=3.0,
        )
        labels = [epoch.label for epoch in timeline.epochs]
        # Four generations (ceil(50/15)); the last aged epoch (onset at
        # year 54) falls past the horizon and is dropped.
        assert labels == [
            "gen-0 fresh", "gen-0 aged",
            "gen-1 fresh", "gen-1 aged",
            "gen-2 fresh", "gen-2 aged",
            "gen-3 fresh",
        ]
        for epoch in timeline.epochs:
            expected = 3.0 if epoch.label.endswith("aged") else 1.0
            assert epoch.hazard_multiplier == expected

    def test_generation_refresh_costs_decline_kryder_style(self):
        timeline = generation_refresh_timeline(
            years=45.0, refresh_every_years=15.0, kryder_decline=0.15
        )
        fresh = [
            epoch for epoch in timeline.epochs
            if epoch.label.endswith("fresh")
        ]
        assert len(fresh) == 3
        costs = [epoch.annual_cost_per_member for epoch in fresh]
        assert costs[0] > costs[1] > costs[2]
        # Aged epochs keep their generation's cost.
        aged = [
            epoch for epoch in timeline.epochs
            if epoch.label.endswith("aged")
        ]
        assert aged[0].annual_cost_per_member == pytest.approx(costs[0])

    def test_generation_refresh_rejects_unknown_medium(self):
        with pytest.raises(KeyError):
            generation_refresh_timeline(medium="drive:floppy")

    def test_planner_handoff_builds_epoch_zero(self):
        from repro.optimize.evaluate import EvaluationSettings, screen
        from repro.optimize.space import CandidateDesign

        candidate = CandidateDesign(
            medium="drive:cheetah",
            replicas=3,
            audits_per_year=12.0,
            placement="multi",
            dataset_tb=5.0,
        )
        evaluation = screen(candidate, EvaluationSettings(mission_years=50.0))
        timeline = timeline_from_recommendation(evaluation, years=50.0)
        assert len(timeline.epochs) == 1
        assert timeline.replicas == 3
        epoch = timeline.epochs[0]
        assert epoch.model == candidate.fault_model()
        assert epoch.audits_per_year == 12.0
        assert epoch.annual_cost_per_member == pytest.approx(
            evaluation.annual_cost
        )


class TestShockFromThreats:
    def test_rate_and_penetration_derived(self):
        profiles = list(THREAT_REGISTRY.values())[:3]
        shock = shock_model_from_threats(profiles)
        expected_rate = sum(
            HOURS_PER_YEAR / p.mean_time_to_occurrence for p in profiles
        )
        assert shock.rate_per_year == pytest.approx(expected_rate)
        assert 0.0 <= shock.replica_penetration <= 1.0

    def test_diversified_placement_attenuates_penetration(self):
        profiles = list(THREAT_REGISTRY.values())[:3]
        shared = shock_model_from_threats(
            profiles, placement=single_site_placement(3)
        )
        diverse = shock_model_from_threats(
            profiles, placement=diversified_placement(3)
        )
        assert diverse.replica_penetration < shared.replica_penetration


def _set(path, value):
    """A mutation that sets the dotted/indexed ``path`` of a payload."""
    keys = [
        int(part) if part.isdigit() else part
        for part in path.replace("[", ".").replace("]", "").split(".")
    ]

    def mutate(payload):
        section = payload
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value

    return mutate


NAN = float("nan")
NUMBER = "must be a finite number"
INTEGER = "must be an integer"
BOOLEAN = "must be true or false"
ARRAY = "must be a JSON array"


class TestFailClosed:
    """Every timeline number, count, boolean and array is typed, and a
    malformed one is a ``ValueError`` naming its JSON path."""

    def payload(self):
        return TestSerialisation().rich_timeline().as_dict()

    @pytest.mark.parametrize(
        "path,value,message",
        [
            ("years", NAN, NUMBER),
            ("years", [1], NUMBER),
            ("years", "10", NUMBER),
            ("replicas", 2.7, INTEGER),
            ("replicas", True, INTEGER),
            ("epochs", 5, ARRAY),
            ("epochs", {"0": {}}, ARRAY),
            ("migrations", "y", ARRAY),
            ("epochs[1].start_year", NAN, NUMBER),
            ("epochs[0].hazard_multiplier", NAN, NUMBER),
            ("epochs[0].audits_per_year", "12", NUMBER),
            ("epochs[0].annual_cost_per_member", NAN, NUMBER),
            ("epochs[1].cost_per_repair", [10], NUMBER),
            ("epochs[0].shocks.rate_per_year", NAN, NUMBER),
            ("epochs[0].shocks.regions", 2.5, INTEGER),
            ("epochs[0].shocks.replica_penetration", "0.4", NUMBER),
            ("epochs[0].shocks.latent", "false", BOOLEAN),
            ("epochs[0].shocks.latent", 0, BOOLEAN),
            ("epochs[0].shocks", 0, "must be a JSON object"),
            ("migrations[0].year", NAN, NUMBER),
            ("migrations[0].cost_per_member", NAN, NUMBER),
            ("migrations[0].risk.mean_years_to_endangered", NAN, NUMBER),
            ("migrations[0].risk.mean_years_endangered_to_dead", "5", NUMBER),
            ("migrations[0].risk.migration_sweep_years", None, NUMBER),
            ("migrations[0].risk.proprietary", "no", BOOLEAN),
        ],
    )
    def test_malformed_field_names_its_path(self, path, value, message):
        payload = self.payload()
        _set(path, value)(payload)
        with pytest.raises(ValueError) as raised:
            FleetTimeline.from_dict(payload)
        assert str(raised.value) == f"'timeline.{path}' {message}"

    @pytest.mark.parametrize(
        "timeline,path",
        [
            ({}, "years"),
            ({"years": 2.0}, "epochs"),
            (
                {"years": 2.0, "epochs": [{"model": fast_model().as_dict()}]},
                "epochs[0].start_year",
            ),
            ({"years": 2.0, "epochs": [{"start_year": 0.0}]}, "epochs[0].model"),
        ],
    )
    def test_missing_field_is_required_not_mistyped(self, timeline, path):
        # These used to fail as wrong types ("must be a finite number",
        # "must be a JSON array", "must be a JSON object").
        with pytest.raises(ValueError) as raised:
            FleetTimeline.from_dict(timeline)
        assert str(raised.value) == f"'timeline.{path}' is required"

    def test_missing_required_field_names_its_path(self):
        payload = self.payload()
        del payload["epochs"][1]["start_year"]
        with pytest.raises(
            ValueError, match=r"'timeline\.epochs\[1\]\.start_year'"
        ):
            FleetTimeline.from_dict(payload)

    def test_parsers_take_the_caller_path(self):
        payload = self.payload()
        payload["years"] = NAN
        with pytest.raises(ValueError, match=r"^'plan\.years' "):
            FleetTimeline.from_dict(payload, "plan")
        with pytest.raises(ValueError, match=r"^'shocks\.regions' "):
            RegionalShockModel.from_dict(
                {"rate_per_year": 0.1, "regions": 2.5,
                 "replica_penetration": 0.4}
            )
        with pytest.raises(ValueError, match=r"^'plan' must be a JSON object"):
            FleetTimeline.from_dict([1], "plan")

    def test_absent_sections_mean_none(self):
        payload = self.payload()
        payload["migrations"] = None
        payload["epochs"][0]["shocks"] = {}
        timeline = FleetTimeline.from_dict(payload)
        assert timeline.migrations == ()
        assert timeline.epochs[0].shocks is None

    def test_integral_floats_and_real_booleans_still_load(self):
        payload = self.payload()
        payload["replicas"] = 3.0
        payload["epochs"][0]["shocks"]["regions"] = 3.0
        assert FleetTimeline.from_dict(payload) == (
            TestSerialisation().rich_timeline()
        )

    @pytest.mark.parametrize(
        "build",
        [
            lambda: RegionalShockModel(rate_per_year=NAN),
            lambda: RegionalShockModel(rate_per_year=0.1, regions=NAN),
            lambda: RegionalShockModel(0.1, replica_penetration=NAN),
            lambda: MigrationEvent(NAN, CAMERA_RAW),
            lambda: MigrationEvent(1.0, CAMERA_RAW, cost_per_member=NAN),
            lambda: FormatRisk("x", NAN, 5.0, 1.0),
            lambda: FormatRisk("x", 8.0, NAN, 1.0),
            lambda: FormatRisk("x", 8.0, 5.0, NAN),
            lambda: FleetEpoch(NAN, fast_model()),
            lambda: FleetEpoch(0.0, fast_model(), hazard_multiplier=NAN),
            lambda: FleetEpoch(0.0, fast_model(), audits_per_year=NAN),
            lambda: FleetEpoch(0.0, fast_model(), annual_cost_per_member=NAN),
            lambda: FleetEpoch(0.0, fast_model(), cost_per_repair=NAN),
            lambda: FleetTimeline(
                years=NAN, epochs=(FleetEpoch(0.0, fast_model()),)
            ),
            lambda: FleetTimeline(
                years=math.inf, epochs=(FleetEpoch(0.0, fast_model()),)
            ),
            lambda: FleetTimeline(
                years=10.0,
                replicas=NAN,
                epochs=(FleetEpoch(0.0, fast_model()),),
            ),
        ],
    )
    def test_dataclasses_reject_nan(self, build):
        with pytest.raises(ValueError):
            build()
