"""Tests for drive specifications and the Section 6.1 bit-error arithmetic."""

import math

import pytest

from repro.storage.bit_errors import (
    bit_error_comparison,
    bits_transferred,
    consumer_replicas_affordable,
    expected_bit_errors,
)
from repro.storage.drives import (
    BARRACUDA_ST3200822A,
    CHEETAH_15K4,
    DriveSpec,
    drive_catalog,
)


class TestDriveSpecs:
    def test_paper_quoted_numbers_encoded(self):
        assert BARRACUDA_ST3200822A.capacity_gb == 200.0
        assert BARRACUDA_ST3200822A.bit_error_rate == 1e-14
        assert BARRACUDA_ST3200822A.in_service_fault_probability == 0.07
        assert BARRACUDA_ST3200822A.price_per_gb == 0.57
        assert CHEETAH_15K4.capacity_gb == 146.0
        assert CHEETAH_15K4.bit_error_rate == 1e-15
        assert CHEETAH_15K4.in_service_fault_probability == 0.03
        assert CHEETAH_15K4.price_per_gb == 8.20
        assert CHEETAH_15K4.mttf_hours == 1.4e6

    def test_cost_ratio_is_about_fourteen(self):
        assert CHEETAH_15K4.cost_ratio_to(BARRACUDA_ST3200822A) == pytest.approx(
            14.4, abs=0.2
        )

    def test_cheetah_full_read_is_about_eight_minutes_at_interface_rate(self):
        # 146 GB at the quoted 300 MB/s.  The paper rounds this up to a
        # 20-minute repair; the raw transfer is ~8 minutes.
        assert CHEETAH_15K4.full_read_hours() * 60 == pytest.approx(8.1, abs=0.2)

    def test_implied_mttf_from_fault_probability(self):
        # 3% over 5 years implies an MTTF near 1.4e6 hours, consistent
        # with the datasheet figure the paper uses.
        life_hours = CHEETAH_15K4.service_life_years * 8760.0
        p = CHEETAH_15K4.in_service_fault_probability
        implied = -life_hours / math.log(1.0 - p)
        assert implied == pytest.approx(1.44e6, rel=0.02)
        assert implied == pytest.approx(CHEETAH_15K4.mttf_hours, rel=0.05)

    def test_capacity_conversions(self):
        assert BARRACUDA_ST3200822A.capacity_bytes == 200e9
        assert BARRACUDA_ST3200822A.capacity_bits == 1.6e12

    def test_catalog_and_lookup(self):
        catalog = drive_catalog()
        assert "barracuda" in catalog and "cheetah" in catalog
        assert catalog["cheetah"] is CHEETAH_15K4

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveSpec("bad", 0.0, 50.0, 1e-14, 1e6, 5.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            DriveSpec("bad", 100.0, 50.0, 2.0, 1e6, 5.0, 0.05, 1.0)
        with pytest.raises(ValueError):
            DriveSpec("bad", 100.0, 50.0, 1e-14, 1e6, 5.0, 1.5, 1.0)


class TestBitsTransferred:
    def test_simple_case(self):
        # 1 MB/s for one hour at full duty = 3600 MB = 2.88e10 bits.
        assert bits_transferred(1.0, 1.0, 1.0) == pytest.approx(2.88e10)

    def test_idle_drive_transfers_nothing(self):
        assert bits_transferred(100.0, 0.0, 1000.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            bits_transferred(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            bits_transferred(1.0, 1.5, 1.0)
        with pytest.raises(ValueError):
            bits_transferred(1.0, 0.5, -1.0)


class TestSection61Comparison:
    def test_barracuda_suffers_about_eight_bit_errors(self):
        result = expected_bit_errors(BARRACUDA_ST3200822A)
        # Paper: "about 8"; the sustained-rate arithmetic gives ~7.3.
        assert 6.0 <= result.expected_bit_errors <= 9.0

    def test_cheetah_suffers_single_digit_bit_errors(self):
        result = expected_bit_errors(CHEETAH_15K4)
        # Paper: "about 6"; with the paper's quoted 300 MB/s this comes
        # to ~3.8.  Same order, same conclusion.
        assert 2.0 <= result.expected_bit_errors <= 7.0

    def test_enterprise_premium_buys_modest_error_reduction(self):
        comparison = bit_error_comparison(BARRACUDA_ST3200822A, CHEETAH_15K4)
        assert comparison["cost_per_gb_ratio"] > 10.0
        assert comparison["bit_error_ratio"] < 4.0
        assert comparison["fault_probability_ratio"] < 4.0

    def test_consumer_replicas_affordable(self):
        replicas = consumer_replicas_affordable(
            BARRACUDA_ST3200822A, CHEETAH_15K4, dataset_gb=1000.0
        )
        # The enterprise budget buys about 14 consumer replicas.
        assert replicas == pytest.approx(14.4, abs=0.2)

    def test_full_drive_reads_consistent_with_bits(self):
        result = expected_bit_errors(BARRACUDA_ST3200822A)
        assert result.full_drive_reads == pytest.approx(
            result.bits_transferred / BARRACUDA_ST3200822A.capacity_bits
        )

    def test_higher_idle_fraction_fewer_errors(self):
        busy = expected_bit_errors(BARRACUDA_ST3200822A, idle_fraction=0.5)
        idle = expected_bit_errors(BARRACUDA_ST3200822A, idle_fraction=0.99)
        assert busy.expected_bit_errors > idle.expected_bit_errors

    def test_validation(self):
        with pytest.raises(ValueError):
            expected_bit_errors(BARRACUDA_ST3200822A, idle_fraction=1.5)
        with pytest.raises(ValueError):
            expected_bit_errors(BARRACUDA_ST3200822A, service_years=0.0)
        with pytest.raises(ValueError):
            consumer_replicas_affordable(BARRACUDA_ST3200822A, CHEETAH_15K4, 0.0)
