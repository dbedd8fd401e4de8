"""Tests for format/media migration planning."""

import pytest

from repro.core.migration import (
    CAMERA_RAW,
    LEGACY_DATABASE_DUMP,
    OPEN_DOCUMENT_FORMAT,
    FormatRisk,
    probability_uninterpretable,
    proprietary_penalty,
    review_rate_for_target,
)


class TestFormatRisk:
    def test_builtin_profiles_flag_proprietary_formats(self):
        assert CAMERA_RAW.proprietary
        assert LEGACY_DATABASE_DUMP.proprietary
        assert not OPEN_DOCUMENT_FORMAT.proprietary

    def test_validation(self):
        with pytest.raises(ValueError):
            FormatRisk("bad", 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            FormatRisk("bad", 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            FormatRisk("bad", 1.0, 1.0, 0.0)


class TestUninterpretabilityProbability:
    def test_more_reviews_lower_risk(self):
        lazy = probability_uninterpretable(CAMERA_RAW, 0.0)
        yearly = probability_uninterpretable(CAMERA_RAW, 1.0)
        quarterly = probability_uninterpretable(CAMERA_RAW, 4.0)
        assert lazy > yearly > quarterly

    def test_open_formats_much_safer(self):
        assert probability_uninterpretable(
            OPEN_DOCUMENT_FORMAT, 1.0
        ) < probability_uninterpretable(CAMERA_RAW, 1.0)

    def test_probability_in_unit_interval(self):
        for checks in (0.0, 0.5, 2.0, 12.0):
            p = probability_uninterpretable(CAMERA_RAW, checks)
            assert 0.0 <= p <= 1.0

    def test_longer_missions_riskier(self):
        assert probability_uninterpretable(
            CAMERA_RAW, 1.0, mission_years=100.0
        ) > probability_uninterpretable(CAMERA_RAW, 1.0, mission_years=10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_uninterpretable(CAMERA_RAW, 1.0, mission_years=0.0)
        with pytest.raises(ValueError):
            probability_uninterpretable(CAMERA_RAW, -1.0)


class TestReviewRatePlanning:
    def test_returned_rate_meets_target(self):
        target = 0.3
        rate = review_rate_for_target(OPEN_DOCUMENT_FORMAT, target)
        assert rate is not None
        assert probability_uninterpretable(OPEN_DOCUMENT_FORMAT, rate) <= target * 1.01

    def test_unreachable_target_returns_none(self):
        # For the proprietary RAW profile even monthly reviews leave a
        # >60% 50-year risk (the year-long migration sweep dominates), so
        # tight targets are unreachable by reviewing alone.
        assert review_rate_for_target(CAMERA_RAW, 0.3) is None
        assert review_rate_for_target(CAMERA_RAW, 1e-6) is None

    def test_easy_target_needs_no_reviews(self):
        assert review_rate_for_target(OPEN_DOCUMENT_FORMAT, 0.99) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            review_rate_for_target(CAMERA_RAW, 0.0)


class TestProprietaryPenalty:
    def test_penalty_greater_than_one(self):
        assert proprietary_penalty(CAMERA_RAW, OPEN_DOCUMENT_FORMAT) > 2.0

    def test_penalty_of_format_against_itself_is_one(self):
        assert proprietary_penalty(CAMERA_RAW, CAMERA_RAW) == pytest.approx(1.0)
