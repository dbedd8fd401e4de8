"""Tests for the mirrored MTTDL (Eqs. 7-8) and the double-fault breakdown."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import FaultType
from repro.core.mttdl import (
    double_fault_breakdown,
    double_fault_rate,
    mirrored_mttdl,
    mirrored_mttdl_exact,
)
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR


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


class TestPaperWorkedExamples:
    def test_no_scrub_32_years(self):
        unscrubbed = model(mean_detect_latent=2.8e5)
        assert mirrored_mttdl(unscrubbed) / HOURS_PER_YEAR == pytest.approx(
            32.0, rel=0.01
        )

    def test_scrubbed_same_order_as_paper(self):
        # The paper's 6128.7-year figure comes from the Eq. 10
        # approximation; the full Eq. 7 evaluation is within 20% of it.
        years = mirrored_mttdl(model()) / HOURS_PER_YEAR
        assert 5000.0 < years < 6500.0

    def test_scrubbing_improves_mttdl_by_two_orders_of_magnitude(self):
        unscrubbed = mirrored_mttdl(model(mean_detect_latent=2.8e5))
        scrubbed = mirrored_mttdl(model(mean_detect_latent=1460.0))
        assert scrubbed / unscrubbed > 100.0

    def test_correlation_scales_mttdl_linearly_when_scrubbed(self):
        base = mirrored_mttdl(model())
        correlated = mirrored_mttdl(model(correlation_factor=0.1))
        assert correlated == pytest.approx(base * 0.1, rel=0.01)


class TestDoubleFaultRate:
    def test_rate_is_inverse_of_mttdl(self):
        m = model()
        assert double_fault_rate(m) == pytest.approx(1.0 / mirrored_mttdl(m))

    def test_rate_increases_with_detection_time(self):
        fast = double_fault_rate(model(mean_detect_latent=100.0))
        slow = double_fault_rate(model(mean_detect_latent=10000.0))
        assert slow > fast

    def test_rate_decreases_with_longer_fault_mean_times(self):
        worse = double_fault_rate(model(mean_time_to_latent=1e5))
        better = double_fault_rate(model(mean_time_to_latent=1e6))
        assert better < worse

    def test_uncapped_rate_at_least_capped_rate(self):
        m = model(mean_detect_latent=2.8e5)
        assert double_fault_rate(m, cap_windows=False) >= double_fault_rate(
            m, cap_windows=True
        )


class TestBreakdown:
    def test_breakdown_total_matches_rate(self):
        m = model()
        breakdown = double_fault_breakdown(m)
        assert breakdown.total == pytest.approx(double_fault_rate(m))

    def test_latent_first_dominates_without_scrubbing(self):
        breakdown = double_fault_breakdown(model(mean_detect_latent=2.8e5))
        latent_first = (
            breakdown.latent_then_visible + breakdown.latent_then_latent
        )
        visible_first = (
            breakdown.visible_then_visible + breakdown.visible_then_latent
        )
        assert latent_first > 100 * visible_first

    def test_fractions_sum_to_one(self):
        fractions = double_fault_breakdown(model()).fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_as_dict_has_four_combinations(self):
        table = double_fault_breakdown(model()).as_dict()
        assert set(table) == {
            (FaultType.VISIBLE, FaultType.VISIBLE),
            (FaultType.VISIBLE, FaultType.LATENT),
            (FaultType.LATENT, FaultType.VISIBLE),
            (FaultType.LATENT, FaultType.LATENT),
        }

    def test_latent_second_more_likely_than_visible_second(self):
        # ML < MV, so within any window a latent second fault is the more
        # frequent finisher.
        breakdown = double_fault_breakdown(model())
        assert breakdown.latent_then_latent > breakdown.latent_then_visible
        assert breakdown.visible_then_latent > breakdown.visible_then_visible


class TestEvaluationModes:
    def test_exact_close_to_capped_in_scrubbed_regime(self):
        m = model()
        assert mirrored_mttdl_exact(m) == pytest.approx(mirrored_mttdl(m), rel=0.05)

    def test_closed_form_matches_capped_when_windows_short(self):
        # Paper Eq. 8: alpha ML^2 MV^2 / ((MV + ML)(MRV ML + (MRL + MDL) MV)).
        m = model(mean_detect_latent=10.0)
        mv, ml = m.mean_time_to_visible, m.mean_time_to_latent
        eq8 = (m.correlation_factor * ml * ml * mv * mv) / (
            (mv + ml) * (m.mean_repair_visible * ml + m.latent_window * mv)
        )
        assert eq8 == pytest.approx(
            mirrored_mttdl(m, cap_windows=False), rel=1e-9
        )

    def test_zero_repair_and_detection_times_give_infinite_mttdl(self):
        m = model(
            mean_repair_visible=0.0,
            mean_repair_latent=0.0,
            mean_detect_latent=0.0,
        )
        assert mirrored_mttdl(m) == float("inf")


class TestMonotonicityProperties:
    @given(
        mdl1=st.floats(min_value=1.0, max_value=1e6),
        mdl2=st.floats(min_value=1.0, max_value=1e6),
    )
    @settings(max_examples=50)
    def test_mttdl_monotone_in_detection_time(self, mdl1, mdl2):
        low, high = sorted((mdl1, mdl2))
        assert mirrored_mttdl(model(mean_detect_latent=low)) >= mirrored_mttdl(
            model(mean_detect_latent=high)
        )

    @given(
        alpha1=st.floats(min_value=0.001, max_value=1.0),
        alpha2=st.floats(min_value=0.001, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_mttdl_monotone_in_correlation_factor(self, alpha1, alpha2):
        low, high = sorted((alpha1, alpha2))
        assert mirrored_mttdl(model(correlation_factor=low)) <= mirrored_mttdl(
            model(correlation_factor=high)
        )

    @given(ml=st.floats(min_value=1e3, max_value=1e8))
    @settings(max_examples=50)
    def test_mttdl_positive_property(self, ml):
        assert mirrored_mttdl(model(mean_time_to_latent=ml)) > 0

    @given(
        mv=st.floats(min_value=1e3, max_value=1e8),
        ml=st.floats(min_value=1e3, max_value=1e8),
        alpha=st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_exact_never_exceeds_best_single_copy_time_scale(self, mv, ml, alpha):
        # Data loss requires at least one fault, so the MTTDL can never be
        # smaller than a fraction of the time to the first fault; sanity
        # bound: it must be at least half the combined first-fault mean
        # time (two copies, capped probability 1 of the second fault).
        m = model(
            mean_time_to_visible=mv,
            mean_time_to_latent=ml,
            correlation_factor=alpha,
            mean_detect_latent=min(mv, ml),
        )
        combined_first = 1.0 / (1.0 / mv + 1.0 / ml)
        assert mirrored_mttdl(m) >= combined_first * 0.49
