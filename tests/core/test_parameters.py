"""Tests for the FaultModel parameter set."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core.faults import FaultType, latent_fault, visible_fault
from repro.core.parameters import (
    FaultModel,
    json_integer,
    json_number,
    mdl_from_audit_rate,
)


def make_model(**overrides):
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


class TestConstruction:
    def test_paper_aliases_match_fields(self):
        model = make_model()
        assert model.mv == model.mean_time_to_visible
        assert model.ml == model.mean_time_to_latent
        assert model.mrv == model.mean_repair_visible
        assert model.mrl == model.mean_repair_latent
        assert model.mdl == model.mean_detect_latent
        assert model.alpha == model.correlation_factor

    @pytest.mark.parametrize(
        "field",
        ["mean_time_to_visible", "mean_time_to_latent"],
    )
    def test_rejects_non_positive_mean_times(self, field):
        with pytest.raises(ValueError):
            make_model(**{field: 0.0})

    @pytest.mark.parametrize(
        "field",
        ["mean_repair_visible", "mean_repair_latent", "mean_detect_latent"],
    )
    def test_rejects_negative_repair_and_detection(self, field):
        with pytest.raises(ValueError):
            make_model(**{field: -1.0})

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_rejects_alpha_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError):
            make_model(correlation_factor=alpha)

    def test_alpha_of_exactly_one_allowed(self):
        assert make_model(correlation_factor=1.0).alpha == 1.0

    @pytest.mark.parametrize(
        "field",
        [
            "mean_time_to_visible",
            "mean_time_to_latent",
            "mean_repair_visible",
            "mean_repair_latent",
            "mean_detect_latent",
            "correlation_factor",
        ],
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError):
            make_model(**{field: math.nan})


class TestDerivedQuantities:
    def test_rates_are_inverse_mean_times(self):
        model = make_model()
        assert model.visible_rate == pytest.approx(1.0 / 1.4e6)
        assert model.latent_rate == pytest.approx(1.0 / 2.8e5)

    def test_total_fault_rate_is_sum(self):
        model = make_model()
        assert model.total_fault_rate == pytest.approx(
            model.visible_rate + model.latent_rate
        )

    def test_visible_window_equals_repair_time(self):
        assert make_model().visible_window == pytest.approx(1.0 / 3.0)

    def test_latent_window_includes_detection(self):
        model = make_model()
        assert model.latent_window == pytest.approx(1460.0 + 1.0 / 3.0)


class TestSpecs:
    def test_visible_spec(self):
        spec = make_model().visible_spec()
        assert spec.fault_type is FaultType.VISIBLE
        assert spec.mean_time_to_fault == 1.4e6

    def test_latent_spec(self):
        spec = make_model().latent_spec()
        assert spec.fault_type is FaultType.LATENT
        assert spec.mean_detection_time == 1460.0

    def test_spec_dispatch(self):
        model = make_model()
        assert model.spec(FaultType.VISIBLE) == model.visible_spec()
        assert model.spec(FaultType.LATENT) == model.latent_spec()


class TestEvolutionHelpers:
    def test_with_correlation(self):
        updated = make_model().with_correlation(0.1)
        assert updated.correlation_factor == 0.1

    def test_with_detection_time(self):
        updated = make_model().with_detection_time(10.0)
        assert updated.mean_detect_latent == 10.0

    def test_with_visible_mean_time(self):
        updated = make_model().with_visible_mean_time(2e6)
        assert updated.mean_time_to_visible == 2e6

    def test_with_audit_rate_sets_half_the_interval(self):
        # Paper Section 6.2: three audits a year leave a latent fault
        # undetected for half of 2,920 hours on average.
        updated = make_model().with_audit_rate(3.0)
        assert updated.mean_detect_latent == 8760.0 / 3.0 / 2.0
        assert updated.mean_time_to_latent == make_model().mean_time_to_latent

    def test_never_audited_detects_at_the_latent_mean_time(self):
        updated = make_model().with_audit_rate(0.0)
        assert updated.mean_detect_latent == 2.8e5
        assert mdl_from_audit_rate(0.0, 123.0) == 123.0

    def test_negative_audit_rate_rejected(self):
        with pytest.raises(ValueError, match="audits_per_year"):
            make_model().with_audit_rate(-1.0)

    def test_scaled_scales_both_fault_mean_times(self):
        model = make_model()
        scaled = model.scaled(2.0)
        assert scaled.mean_time_to_visible == pytest.approx(2 * model.mv)
        assert scaled.mean_time_to_latent == pytest.approx(2 * model.ml)
        assert scaled.mean_repair_visible == model.mrv

    def test_scaled_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            make_model().scaled(0.0)

    def test_original_unchanged_by_helpers(self):
        model = make_model()
        model.with_correlation(0.5)
        model.with_detection_time(1.0)
        assert model.correlation_factor == 1.0
        assert model.mean_detect_latent == 1460.0


class TestSerialisation:
    def test_as_dict_uses_paper_notation(self):
        d = make_model().as_dict()
        assert set(d) == {"MV", "ML", "MRV", "MRL", "MDL", "alpha"}
        assert d["MV"] == 1.4e6

    def test_describe_mentions_all_parameters(self):
        text = make_model().describe()
        for token in ("MV", "ML", "MRV", "MRL", "MDL", "alpha"):
            assert token in text

    def test_from_dict_roundtrips(self):
        model = make_model()
        assert FaultModel.from_dict(model.as_dict()) == model

    @pytest.mark.parametrize("value", ["1", [1], None, True, math.nan])
    def test_from_dict_names_the_path_of_a_bad_number(self, value):
        payload = {**make_model().as_dict(), "MV": value}
        with pytest.raises(ValueError, match=r"'system\.model\.MV'"):
            FaultModel.from_dict(payload, "system.model")


class TestJsonNumbers:
    @pytest.mark.parametrize("value", [0, 2, -1.5, 1e300])
    def test_finite_reals_are_numbers(self, value):
        assert json_number(value, "x") == float(value)
        assert type(json_number(value, "x")) is float

    @pytest.mark.parametrize(
        "value",
        [math.nan, math.inf, -math.inf, 10**400, True, False, "1", [1], None],
    )
    def test_everything_else_is_rejected_with_its_path(self, value):
        with pytest.raises(ValueError, match=r"'a\.b' must be a finite"):
            json_number(value, "a.b")

    @pytest.mark.parametrize(
        "value,expected", [(3, 3), (2000.0, 2000), (0, 0)]
    )
    def test_integral_values_are_integers(self, value, expected):
        assert json_integer(value, "x") == expected
        assert type(json_integer(value, "x")) is int

    @pytest.mark.parametrize(
        "value", [2.7, 1999.9, math.nan, math.inf, True, "2", [2], None]
    )
    def test_non_integers_are_rejected_with_their_path(self, value):
        with pytest.raises(ValueError, match=r"'a\.b' must be an integer"):
            json_integer(value, "a.b")


@given(
    mv=st.floats(min_value=1e2, max_value=1e8),
    ml=st.floats(min_value=1e2, max_value=1e8),
    alpha=st.floats(min_value=0.001, max_value=1.0),
)
def test_rates_positive_property(mv, ml, alpha):
    model = FaultModel(
        mean_time_to_visible=mv,
        mean_time_to_latent=ml,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=10.0,
        correlation_factor=alpha,
    )
    assert model.visible_rate > 0
    assert model.latent_rate > 0
    assert model.total_fault_rate == pytest.approx(
        model.visible_rate + model.latent_rate
    )
