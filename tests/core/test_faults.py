"""Tests for the fault vocabulary (FaultType, FaultClass, FaultSpec)."""

import pytest

from repro.core.faults import (
    DEFAULT_TYPE_FOR_CLASS,
    FaultClass,
    FaultSpec,
    FaultType,
    latent_fault,
    visible_fault,
)


class TestFaultType:
    def test_latent_flag(self):
        assert FaultType.LATENT.is_latent

    def test_visible_flag(self):
        assert not FaultType.VISIBLE.is_latent


class TestFaultClassDefaults:
    def test_every_class_has_a_default_type(self):
        for fault_class in FaultClass:
            assert fault_class in DEFAULT_TYPE_FOR_CLASS

    def test_media_faults_default_to_latent(self):
        assert DEFAULT_TYPE_FOR_CLASS[FaultClass.MEDIA_FAULT] is FaultType.LATENT

    def test_disasters_default_to_visible(self):
        assert (
            DEFAULT_TYPE_FOR_CLASS[FaultClass.LARGE_SCALE_DISASTER]
            is FaultType.VISIBLE
        )


class TestFaultSpec:
    def test_visible_constructor(self):
        spec = visible_fault(1000.0, 2.0, FaultClass.COMPONENT_FAULT, "disk died")
        assert spec.fault_type is FaultType.VISIBLE
        assert spec.mean_detection_time == 0.0
        assert spec.fault_class is FaultClass.COMPONENT_FAULT

    def test_latent_constructor(self):
        spec = latent_fault(500.0, 1.0, 50.0)
        assert spec.fault_type is FaultType.LATENT
        assert spec.mean_detection_time == 50.0

    def test_rate_is_inverse_of_mean_time(self):
        spec = visible_fault(250.0, 1.0)
        assert spec.rate == pytest.approx(1.0 / 250.0)

    def test_with_detection_time_returns_new_spec(self):
        spec = latent_fault(1000.0, 3.0, 40.0)
        updated = spec.with_detection_time(10.0)
        assert updated.mean_detection_time == 10.0
        assert spec.mean_detection_time == 40.0

    def test_rejects_zero_mean_time(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.VISIBLE, 0.0, 1.0)

    def test_rejects_negative_repair(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.VISIBLE, 10.0, -1.0)

    def test_rejects_negative_detection(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.LATENT, 10.0, 1.0, -5.0)

    def test_visible_spec_rejects_nonzero_detection_time(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultType.VISIBLE, 10.0, 1.0, mean_detection_time=2.0)

    def test_specs_are_hashable_and_comparable(self):
        a = visible_fault(10.0, 1.0)
        b = visible_fault(10.0, 1.0)
        assert a == b
        assert hash(a) == hash(b)

    def test_description_not_part_of_equality(self):
        a = visible_fault(10.0, 1.0, description="one")
        b = visible_fault(10.0, 1.0, description="two")
        assert a == b
