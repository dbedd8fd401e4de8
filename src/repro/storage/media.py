"""Storage media classes: on-line disk, off-line tape, optical media.

Sections 6.2 and 6.3 of the paper argue that on-line replicas (disk)
dominate off-line replicas (tape, optical) for long-term preservation
because auditing and repairing off-line media is slow, expensive, and —
through the human handling involved — itself a source of correlated
faults.  This module captures each media class's audit and repair
characteristics so the disk-vs-tape question (experiment E8/E12) can be
asked of the model quantitatively.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict

from repro.core.parameters import FaultModel, mdl_from_audit_rate
from repro.core.units import HOURS_PER_YEAR


class MediaClass(enum.Enum):
    """Broad classes of storage media discussed in the paper."""

    ONLINE_DISK = "online_disk"
    OFFLINE_TAPE = "offline_tape"
    OPTICAL = "optical"


@dataclass(frozen=True)
class MediaSpec:
    """Reliability- and audit-relevant characteristics of a media class.

    Attributes:
        name: readable label.
        media_class: which broad class this is.
        mean_time_to_visible: per-replica ``MV`` in hours.
        mean_time_to_latent: per-replica ``ML`` in hours (bit rot, media
            degradation).
        access_latency_hours: time to get the medium ready for an audit
            or a repair (retrieval from a vault, mounting, spin-up).
        audit_hours: hands-on time to audit one replica once accessible.
        repair_hours: time to restore one replica from a good copy once
            accessible.
        audit_cost: dollars per audit pass of one replica (handling,
            staff, transport).
        handling_fault_probability: probability that one audit or repair
            pass damages the medium (the correlated-fault channel of
            off-line handling).
        storage_cost_per_tb_year: dollars to keep one terabyte for one
            year on this medium (media, space, power where applicable).
    """

    name: str
    media_class: MediaClass
    mean_time_to_visible: float
    mean_time_to_latent: float
    access_latency_hours: float
    audit_hours: float
    repair_hours: float
    audit_cost: float
    handling_fault_probability: float
    storage_cost_per_tb_year: float

    def __post_init__(self) -> None:
        if self.mean_time_to_visible <= 0 or self.mean_time_to_latent <= 0:
            raise ValueError("fault mean times must be positive")
        if self.access_latency_hours < 0 or self.audit_hours < 0:
            raise ValueError("latencies must be non-negative")
        if self.repair_hours <= 0:
            raise ValueError("repair_hours must be positive")
        if self.audit_cost < 0 or self.storage_cost_per_tb_year < 0:
            raise ValueError("costs must be non-negative")
        if not 0 <= self.handling_fault_probability <= 1:
            raise ValueError("handling_fault_probability must be in [0, 1]")

    @property
    def is_online(self) -> bool:
        return self.media_class is MediaClass.ONLINE_DISK

    def effective_audit_hours(self) -> float:
        """Wall-clock hours per audit pass, including access latency."""
        return self.access_latency_hours + self.audit_hours

    def effective_repair_hours(self) -> float:
        """Wall-clock hours per repair, including access latency."""
        return self.access_latency_hours + self.repair_hours

    def max_audits_per_year(self, staff_hours_per_year: float = 2000.0) -> float:
        """Upper bound on audit frequency given a staffing budget.

        On-line media audit without human involvement, so the bound is
        set by the audit duration alone; off-line media consume staff
        hours for every pass.
        """
        per_pass = self.effective_audit_hours()
        if per_pass <= 0:
            return float("inf")
        if self.is_online:
            return HOURS_PER_YEAR / per_pass
        return staff_hours_per_year / per_pass

    def annual_audit_cost(self, audits_per_year: float) -> float:
        """Dollar cost of auditing one replica at a given rate."""
        if audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")
        return audits_per_year * self.audit_cost


#: On-line disk replica: cheap frequent audits, fast automated repair,
#: negligible handling risk.  Fault mean times follow the Cheetah-derived
#: numbers of Section 5.4.
ONLINE_DISK = MediaSpec(
    name="on-line disk replica",
    media_class=MediaClass.ONLINE_DISK,
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    access_latency_hours=0.0,
    audit_hours=1.0,
    repair_hours=1.0 / 3.0,
    audit_cost=0.5,
    handling_fault_probability=0.0,
    storage_cost_per_tb_year=150.0,
)

#: Off-line tape replica in secure storage: retrieval dominates both the
#: audit and the repair path, each handling pass carries a damage risk,
#: and media degrade (latent faults) faster than they fail visibly.
OFFLINE_TAPE = MediaSpec(
    name="off-line tape replica",
    media_class=MediaClass.OFFLINE_TAPE,
    mean_time_to_visible=2.0e6,
    mean_time_to_latent=1.5e5,
    access_latency_hours=72.0,
    audit_hours=8.0,
    repair_hours=12.0,
    audit_cost=120.0,
    handling_fault_probability=0.01,
    storage_cost_per_tb_year=40.0,
)

#: Consumer optical media (CD-ROM/DVD): the paper cites studies finding
#: media sold as lasting decades often degrading within two to five
#: years.
OPTICAL_CDROM = MediaSpec(
    name="optical (CD-ROM) replica",
    media_class=MediaClass.OPTICAL,
    mean_time_to_visible=5.0e5,
    mean_time_to_latent=3.0e4,
    access_latency_hours=1.0,
    audit_hours=2.0,
    repair_hours=4.0,
    audit_cost=10.0,
    handling_fault_probability=0.005,
    storage_cost_per_tb_year=25.0,
)


def media_catalog() -> Dict[str, MediaSpec]:
    """All built-in media specifications keyed by a short identifier."""
    return {
        "disk": ONLINE_DISK,
        "tape": OFFLINE_TAPE,
        "optical": OPTICAL_CDROM,
    }


def fault_model_for_media(
    media: MediaSpec,
    audits_per_year: float,
    correlation_factor: float = 1.0,
) -> FaultModel:
    """Translate a media spec and audit rate into model parameters.

    ``MDL`` follows from the audit rate (:func:`mdl_from_audit_rate`);
    the repair times include the medium's access latency, which is what
    makes off-line media score poorly.
    """
    mdl = mdl_from_audit_rate(audits_per_year, media.mean_time_to_latent)
    return FaultModel(
        mean_time_to_visible=media.mean_time_to_visible,
        mean_time_to_latent=media.mean_time_to_latent,
        mean_repair_visible=media.effective_repair_hours(),
        mean_repair_latent=media.effective_repair_hours(),
        mean_detect_latent=mdl,
        correlation_factor=correlation_factor,
    )
