"""Tests for the audit grid shared by every simulator.

:func:`audit_interval_for` turns a model's ``MDL`` (or an audit-rate
override) into the grid interval, and :func:`audit_detection_time`
places each latent fault's detection on that grid.  The event engine's
agreement with the grid arithmetic is checked in ``test_system.py``.
"""

import math

import numpy as np
import pytest

from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.scrubbing import audit_detection_time, audit_interval_for


def model_with(mean_detect_latent):
    return FaultModel(
        mean_time_to_visible=500.0,
        mean_time_to_latent=100.0,
        mean_repair_visible=1.0,
        mean_repair_latent=1.0,
        mean_detect_latent=mean_detect_latent,
        correlation_factor=1.0,
    )


class TestAuditIntervalFor:
    @pytest.mark.parametrize(
        "mdl, audits_per_year, interval",
        [
            # MDL = 0 detects on arrival: a zero interval, not "never".
            (0.0, None, 0.0),
            # An MDL beyond the latent mean time means no scrubbing.
            (250.0, None, None),
            # An audit rate overrides the MDL, even a no-scrub one.
            (250.0, 12.0, HOURS_PER_YEAR / 12.0),
            (5.0, 0.5, 2.0 * HOURS_PER_YEAR),
        ],
    )
    def test_interval(self, mdl, audits_per_year, interval):
        assert audit_interval_for(model_with(mdl), audits_per_year) == interval


class TestAuditDetectionTime:
    @pytest.mark.parametrize(
        "time, detected",
        [(0.0, 10.0), (3.0, 10.0), (10.0, 20.0), (25.5, 30.0)],
    )
    def test_waits_for_the_next_grid_point(self, time, detected):
        # A fault at a grid point missed that audit and waits for the next.
        assert audit_detection_time(time, 10.0) == detected

    def test_maps_arrays_elementwise(self):
        times = np.array([0.5, 9.99, 10.0, 25.0])
        assert audit_detection_time(times, 10.0).tolist() == [
            10.0,
            10.0,
            20.0,
            30.0,
        ]

    def test_zero_interval_detects_on_arrival(self):
        times = np.array([0.0, 3.25, 7e5])
        assert audit_detection_time(times, 0.0).tolist() == times.tolist()

    def test_no_interval_never_detects(self):
        detected = audit_detection_time(np.array([1.0, 2.0]), None)
        assert detected.tolist() == [math.inf, math.inf]
        assert audit_detection_time(5.0, None) == math.inf
