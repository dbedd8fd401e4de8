"""Tests for the streaming, mergeable fleet tallies."""

import numpy as np
import pytest

from repro.core.parameters import FaultModel
from repro.fleet.aggregate import FleetTally
from repro.fleet.population import simulate_fleet_chunk
from repro.fleet.timeline import stationary_timeline


def fast_model():
    return FaultModel(500.0, 100.0, 1.0, 1.0, 5.0, 1.0)


@pytest.fixture
def chunks():
    timeline = stationary_timeline(fast_model(), 2.0)
    return [
        simulate_fleet_chunk(timeline, members=200, seed=1, chunk=index)
        for index in range(3)
    ]


def tally_of(chunk):
    return FleetTally.from_chunk(chunk)


class TestMergeProperties:
    def test_merge_is_commutative(self, chunks):
        a, b = tally_of(chunks[0]), tally_of(chunks[1])
        assert a.merge(b).as_dict() == b.merge(a).as_dict()

    def test_merge_is_associative(self, chunks):
        a, b, c = (tally_of(chunk) for chunk in chunks)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.as_dict() == right.as_dict()

    def test_merge_equals_streaming_add(self, chunks):
        streamed = FleetTally(year_bins=chunks[0].repair_year_counts.size)
        for chunk in chunks:
            streamed.add(chunk)
        merged = tally_of(chunks[0]).merge(tally_of(chunks[1])).merge(
            tally_of(chunks[2])
        )
        assert streamed.as_dict() == merged.as_dict()

    def test_merge_rejects_mismatched_bins(self, chunks):
        a = tally_of(chunks[0])
        with pytest.raises(ValueError):
            a.merge(FleetTally(year_bins=a.year_bins + 1))

    def test_add_rejects_mismatched_bins(self, chunks):
        tally = FleetTally(year_bins=2)
        with pytest.raises(ValueError):
            tally.add(chunks[0])


class TestDerivedCurves:
    def test_survival_curve_shape(self, chunks):
        tally = tally_of(chunks[0])
        curve = tally.survival_curve()
        assert curve[0] == 1.0
        assert np.all(np.diff(curve) <= 0)
        assert curve[-1] == pytest.approx(1.0 - tally.loss_fraction)

    def test_loss_fraction_by_year_is_cumulative(self, chunks):
        tally = tally_of(chunks[0])
        series = tally.loss_fraction_by_year()
        assert np.all(np.diff(series) >= 0)
        assert series[-1] == pytest.approx(tally.loss_fraction)
        assert np.allclose(tally.survival_curve()[1:], 1.0 - series)

    def test_loss_estimate_is_binomial(self, chunks):
        tally = tally_of(chunks[0])
        estimate = tally.loss_estimate()
        assert estimate.mean == pytest.approx(tally.loss_fraction)
        assert estimate.trials == tally.members
        low, high = estimate.confidence_interval()
        assert 0.0 <= low <= estimate.mean <= high <= 1.0

    def test_zero_loss_fleet_reports_rule_of_three_bound(self):
        tally = FleetTally(year_bins=5, members=50, losses=0)
        estimate = tally.loss_estimate()
        low, high = estimate.confidence_interval()
        assert low == 0.0
        assert high == pytest.approx(3.0 / 50)

    def test_curves_exclude_the_overflow_bin(self, chunks):
        tally = tally_of(chunks[0])
        # year_bins = ceil(years) + 1 histogram bins; the curves span
        # the simulated years only.
        assert tally.survival_curve().size == tally.year_bins
        assert tally.loss_fraction_by_year().size == tally.year_bins - 1

    def test_empty_tally_refuses_curves(self):
        tally = FleetTally(year_bins=3)
        with pytest.raises(ValueError):
            tally.survival_curve()
        with pytest.raises(ValueError):
            tally.loss_estimate()


class TestSerialisation:
    def test_dict_roundtrip(self, chunks):
        tally = tally_of(chunks[0]).merge(tally_of(chunks[1]))
        clone = FleetTally.from_dict(tally.as_dict())
        assert clone.as_dict() == tally.as_dict()
        assert np.array_equal(clone.loss_year_counts, tally.loss_year_counts)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetTally(year_bins=0)
        with pytest.raises(ValueError):
            FleetTally(year_bins=3, loss_year_counts=np.zeros(2))
