"""Tests for the exponential loss-probability helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import probability
from repro.core.units import HOURS_PER_YEAR


class TestExponentialCdf:
    def test_zero_time_gives_zero_probability(self):
        assert probability.exponential_cdf(0.0, 100.0) == 0.0

    def test_one_mean_time_gives_familiar_value(self):
        assert probability.exponential_cdf(100.0, 100.0) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_cdf_is_one_minus_survival(self):
        cdf = probability.exponential_cdf(37.0, 200.0)
        assert cdf == pytest.approx(1.0 - math.exp(-37.0 / 200.0))

    def test_rejects_non_positive_mean(self):
        with pytest.raises(ValueError):
            probability.exponential_cdf(1.0, 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            probability.exponential_cdf(-1.0, 10.0)

    @given(
        t=st.floats(min_value=0, max_value=1e9),
        mean=st.floats(min_value=1e-3, max_value=1e9),
    )
    def test_cdf_in_unit_interval_property(self, t, mean):
        value = probability.exponential_cdf(t, mean)
        assert 0.0 <= value <= 1.0

    @given(
        mean=st.floats(min_value=1.0, max_value=1e6),
        t1=st.floats(min_value=0.0, max_value=1e6),
        t2=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_cdf_monotone_in_time_property(self, mean, t1, t2):
        low, high = sorted((t1, t2))
        assert probability.exponential_cdf(low, mean) <= probability.exponential_cdf(
            high, mean
        )


class TestPaperLossProbabilities:
    """The paper's Section 5.4 MTTDL-to-probability conversions."""

    def test_unscrubbed_pair_79_percent(self):
        mttdl = 32.0 * HOURS_PER_YEAR
        p = probability.probability_of_loss(mttdl, 50.0 * HOURS_PER_YEAR)
        assert p == pytest.approx(0.79, abs=0.005)

    def test_scrubbed_pair_under_one_percent(self):
        mttdl = 6128.7 * HOURS_PER_YEAR
        p = probability.probability_of_loss(mttdl, 50.0 * HOURS_PER_YEAR)
        assert p == pytest.approx(0.008, abs=0.001)

    def test_correlated_pair_7_8_percent(self):
        mttdl = 612.9 * HOURS_PER_YEAR
        p = probability.probability_of_loss(mttdl, 50.0 * HOURS_PER_YEAR)
        assert p == pytest.approx(0.078, abs=0.002)

    def test_negligent_pair_26_8_percent(self):
        mttdl = 159.8 * HOURS_PER_YEAR
        p = probability.probability_of_loss(mttdl, 50.0 * HOURS_PER_YEAR)
        assert p == pytest.approx(0.268, abs=0.003)


class TestInversions:
    def test_mttdl_for_loss_probability_round_trip(self):
        mission = 50.0 * HOURS_PER_YEAR
        mttdl = probability.mttdl_for_loss_probability(0.05, mission)
        assert probability.probability_of_loss(mttdl, mission) == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_mttdl_for_loss_probability_rejects_bad_probability(self, bad):
        with pytest.raises(ValueError):
            probability.mttdl_for_loss_probability(bad, 100.0)

    def test_mttdl_for_loss_probability_rejects_bad_mission(self):
        with pytest.raises(ValueError):
            probability.mttdl_for_loss_probability(0.5, 0.0)

    @given(
        p=st.floats(min_value=0.001, max_value=0.999),
        mission=st.floats(min_value=1.0, max_value=1e7),
    )
    def test_inversion_property(self, p, mission):
        mttdl = probability.mttdl_for_loss_probability(p, mission)
        assert probability.probability_of_loss(mttdl, mission) == pytest.approx(
            p, rel=1e-9
        )


class TestMissionArithmetic:
    @pytest.mark.parametrize("unit", [1.0, 1.0 / HOURS_PER_YEAR, 60.0])
    def test_loss_probability_is_unit_free(self, unit):
        # Only the ratio of mission to MTTDL matters: 32 years against
        # 50 reads the same in years, hours or minutes.
        hours = probability.probability_of_loss(
            32.0 * HOURS_PER_YEAR, 50.0 * HOURS_PER_YEAR
        )
        scaled = probability.probability_of_loss(
            32.0 * HOURS_PER_YEAR * unit, 50.0 * HOURS_PER_YEAR * unit
        )
        assert scaled == pytest.approx(hours, rel=1e-12)

    @pytest.mark.parametrize(
        "mttdl", [1.0, 32.0 * HOURS_PER_YEAR, 6128.7 * HOURS_PER_YEAR]
    )
    def test_half_life_is_mttdl_ln2(self, mttdl):
        half_life = mttdl * math.log(2.0)
        assert probability.probability_of_loss(mttdl, half_life) == (
            pytest.approx(0.5)
        )
        assert probability.mttdl_for_loss_probability(0.5, half_life) == (
            pytest.approx(mttdl)
        )

    def test_one_mttdl_of_mission_loses_with_probability_1_minus_1_over_e(self):
        assert probability.probability_of_loss(
            HOURS_PER_YEAR, HOURS_PER_YEAR
        ) == pytest.approx(1.0 - math.exp(-1.0))

    def test_short_missions_lose_mission_over_mttdl(self):
        # One year of the scrubbed pair: expected losses 1 / 6128.7, and
        # the probability of any loss barely falls short of it.
        p = probability.probability_of_loss(
            6128.7 * HOURS_PER_YEAR, HOURS_PER_YEAR
        )
        assert p == pytest.approx(1.0 / 6128.7, rel=1e-3)
        assert p < 1.0 / 6128.7
