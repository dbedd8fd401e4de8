"""Disk drive specifications used in the paper's comparisons.

The paper's Section 6.1 compares two specific 2005-era Seagate drives:

* the consumer **Barracuda ST3200822A**: 200 GB, quoted irrecoverable bit
  error rate 1e-14, 7% probability of an in-service fault over a 5-year
  service life, $0.57/GB (TigerDirect, June 2005);
* the enterprise **Cheetah 15K.4**: 146 GB, bit error rate 1e-15, 3%
  in-service fault probability, $8.20/GB, datasheet MTTF 1.4e6 hours.

Those numbers are encoded here verbatim as named :class:`DriveSpec`
instances (this is the "substitute the datasheet for the hardware"
substitution documented in DESIGN.md), plus generic consumer/enterprise
specs for parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

#: Bytes per gigabyte (drive vendors use decimal gigabytes).
BYTES_PER_GB = 1e9
BITS_PER_BYTE = 8.0


@dataclass(frozen=True)
class DriveSpec:
    """Specification of one disk drive model.

    Attributes:
        name: marketing / model name.
        capacity_gb: formatted capacity in decimal gigabytes.
        sustained_bandwidth_mb_s: sustained transfer rate in MB/s used
            for rebuild-time and bit-error arithmetic.
        bit_error_rate: irrecoverable bit error rate (errors per bit
            transferred).
        mttf_hours: datasheet mean time to failure.
        service_life_years: the vendor's quoted service life.
        in_service_fault_probability: probability of a visible fault
            within the service life (from the datasheet or the paper).
        price_per_gb: purchase price in dollars per gigabyte.
        enterprise: whether this is an enterprise-class drive.
    """

    name: str
    capacity_gb: float
    sustained_bandwidth_mb_s: float
    bit_error_rate: float
    mttf_hours: float
    service_life_years: float
    in_service_fault_probability: float
    price_per_gb: float
    enterprise: bool = False

    def __post_init__(self) -> None:
        if self.capacity_gb <= 0:
            raise ValueError("capacity_gb must be positive")
        if self.sustained_bandwidth_mb_s <= 0:
            raise ValueError("sustained_bandwidth_mb_s must be positive")
        if not 0 < self.bit_error_rate < 1:
            raise ValueError("bit_error_rate must be in (0, 1)")
        if self.mttf_hours <= 0:
            raise ValueError("mttf_hours must be positive")
        if self.service_life_years <= 0:
            raise ValueError("service_life_years must be positive")
        if not 0 <= self.in_service_fault_probability <= 1:
            raise ValueError("in_service_fault_probability must be in [0, 1]")
        if self.price_per_gb <= 0:
            raise ValueError("price_per_gb must be positive")

    # -- derived quantities ------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        return self.capacity_gb * BYTES_PER_GB

    @property
    def capacity_bits(self) -> float:
        return self.capacity_bytes * BITS_PER_BYTE

    def full_read_hours(self) -> float:
        """Hours needed to read (or rewrite) the entire drive once.

        This is the paper's basis for the visible repair time ``MRV`` of
        a mirrored pair: rebuilding the failed copy means transferring
        the full capacity at the sustained bandwidth.
        """
        bytes_per_hour = self.sustained_bandwidth_mb_s * 1e6 * 3600.0
        return self.capacity_bytes / bytes_per_hour

    def cost_ratio_to(self, other: "DriveSpec") -> float:
        """Price-per-gigabyte ratio of this drive to another."""
        return self.price_per_gb / other.price_per_gb


#: Consumer drive of Section 6.1 (Seagate ST3200822A, 7200.7 Barracuda).
#: The 58 MB/s sustained rate is the datasheet's maximum sustained
#: transfer rate; the paper's "about 8 irrecoverable bit errors" follows
#: from it (see repro.storage.bit_errors).
BARRACUDA_ST3200822A = DriveSpec(
    name="Seagate Barracuda ST3200822A",
    capacity_gb=200.0,
    sustained_bandwidth_mb_s=58.0,
    bit_error_rate=1e-14,
    mttf_hours=6.0e5,
    service_life_years=5.0,
    in_service_fault_probability=0.07,
    price_per_gb=0.57,
    enterprise=False,
)

#: Enterprise drive of Sections 5.4 and 6.1 (Seagate Cheetah 15K.4).
#: The paper quotes a "bandwidth of 300 MB/s" (the SCSI interface rate)
#: when deriving the 20-minute repair time, so that figure is kept here.
CHEETAH_15K4 = DriveSpec(
    name="Seagate Cheetah 15K.4",
    capacity_gb=146.0,
    sustained_bandwidth_mb_s=300.0,
    bit_error_rate=1e-15,
    mttf_hours=1.4e6,
    service_life_years=5.0,
    in_service_fault_probability=0.03,
    price_per_gb=8.20,
    enterprise=True,
)

#: Generic parameterisations for sweeps that should not be tied to a
#: particular 2005 product.
GENERIC_CONSUMER_DRIVE = DriveSpec(
    name="generic consumer SATA drive",
    capacity_gb=500.0,
    sustained_bandwidth_mb_s=100.0,
    bit_error_rate=1e-14,
    mttf_hours=7.0e5,
    service_life_years=5.0,
    in_service_fault_probability=0.06,
    price_per_gb=0.50,
    enterprise=False,
)

GENERIC_ENTERPRISE_DRIVE = DriveSpec(
    name="generic enterprise SAS drive",
    capacity_gb=300.0,
    sustained_bandwidth_mb_s=150.0,
    bit_error_rate=1e-15,
    mttf_hours=1.6e6,
    service_life_years=5.0,
    in_service_fault_probability=0.03,
    price_per_gb=6.00,
    enterprise=True,
)


def drive_catalog() -> Dict[str, DriveSpec]:
    """All built-in drive specifications keyed by a short identifier."""
    return {
        "barracuda": BARRACUDA_ST3200822A,
        "cheetah": CHEETAH_15K4,
        "generic_consumer": GENERIC_CONSUMER_DRIVE,
        "generic_enterprise": GENERIC_ENTERPRISE_DRIVE,
    }
