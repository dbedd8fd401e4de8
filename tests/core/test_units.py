"""Tests for time-unit conversions."""

import pytest
from hypothesis import given, strategies as st

from repro.core import units
from repro.core.scenarios import SCRUB_THREE_PER_YEAR_MDL_HOURS


class TestConversions:
    def test_hours_per_year_constant(self):
        assert units.HOURS_PER_YEAR == 8760.0

    def test_years_to_hours(self):
        assert units.years_to_hours(1.0) == 8760.0

    @pytest.mark.parametrize(
        "years,hours",
        [(0.0, 0.0), (0.5, 4380.0), (3.5, 30660.0), (50.0, 438000.0)],
    )
    def test_years_to_hours_examples(self, years, hours):
        assert units.years_to_hours(years) == hours

    def test_paper_scrub_mdl_is_a_sixth_of_a_year(self):
        # Three audits a year, MDL half the interval: 1460 hours.
        assert SCRUB_THREE_PER_YEAR_MDL_HOURS == units.years_to_hours(1.0) / 6.0

    @given(st.floats(min_value=1e-6, max_value=1e9, allow_nan=False))
    def test_hours_per_year_round_trip_property(self, years):
        assert units.years_to_hours(years) / units.HOURS_PER_YEAR == (
            pytest.approx(years, rel=1e-12)
        )
