"""On-line vs off-line audit economics (paper Sections 6.2-6.3).

On-line (disk) replicas can be audited frequently, automatically, and
with negligible handling risk; off-line (tape, optical) replicas pay a
retrieval/mount/return cost for every audit pass and each pass carries a
handling-fault risk.  These functions quantify that comparison: achieved
detection latency per dollar, audit bandwidth consumed, and the
audit-induced fault rate that caps how often off-line media can safely be
audited.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.mttdl import mirrored_mttdl
from repro.core.units import HOURS_PER_YEAR
from repro.storage.media import MediaSpec, fault_model_for_media


@dataclass(frozen=True)
class AuditCostComparison:
    """Reliability-per-cost numbers for one media class at one audit rate.

    Attributes:
        media_name: which media class.
        audits_per_year: the audit rate evaluated.
        mdl_hours: achieved mean detection latency.
        mttdl_years: mirrored-pair MTTDL with that latency.
        annual_audit_cost: dollars per replica per year spent auditing.
        audit_induced_faults_per_year: expected handling faults per year
            caused by the auditing itself.
        staff_hours_per_year: hands-on staff hours per replica per year.
    """

    media_name: str
    audits_per_year: float
    mdl_hours: float
    mttdl_years: float
    annual_audit_cost: float
    audit_induced_faults_per_year: float
    staff_hours_per_year: float


def audit_induced_fault_rate(media: MediaSpec, audits_per_year: float) -> float:
    """Expected handling faults per replica per year from auditing."""
    if audits_per_year < 0:
        raise ValueError("audits_per_year must be non-negative")
    return audits_per_year * media.handling_fault_probability


def audit_bandwidth_fraction(
    capacity_gb: float, bandwidth_mb_s: float, audits_per_year: float
) -> float:
    """Fraction of a replica's total bandwidth consumed by auditing.

    Each audit reads the full capacity once; the fraction is audit read
    time over total wall-clock time.  Values near (or above) 1 mean the
    requested audit rate is physically impossible at that bandwidth —
    the practical ceiling Schwarz et al. balance against.
    """
    if capacity_gb <= 0 or bandwidth_mb_s <= 0:
        raise ValueError("capacity and bandwidth must be positive")
    if audits_per_year < 0:
        raise ValueError("audits_per_year must be non-negative")
    hours_per_audit = capacity_gb * 1e3 / bandwidth_mb_s / 3600.0
    return audits_per_year * hours_per_audit / HOURS_PER_YEAR


def evaluate_media_audit(
    media: MediaSpec,
    audits_per_year: float,
    correlation_factor: float = 1.0,
    wear_per_handling_fault: float = 0.0,
) -> AuditCostComparison:
    """Reliability and cost of auditing one media class at one rate.

    The audit-induced handling faults are folded into the model by
    shortening the visible-fault mean time proportionally (each handling
    fault per year adds ``1/8760`` per hour of visible-fault rate).
    """
    if audits_per_year < 0:
        raise ValueError("audits_per_year must be non-negative")
    model = fault_model_for_media(media, audits_per_year, correlation_factor)
    induced_per_year = audit_induced_fault_rate(media, audits_per_year)
    if induced_per_year > 0:
        induced_rate_per_hour = induced_per_year / HOURS_PER_YEAR
        combined_visible_rate = 1.0 / model.mean_time_to_visible + induced_rate_per_hour
        model = model.with_visible_mean_time(1.0 / combined_visible_rate)
    if wear_per_handling_fault > 0 and induced_per_year > 0:
        model = model.scaled(max(1.0 - wear_per_handling_fault * induced_per_year, 0.01))
    mttdl_years = mirrored_mttdl(model) / HOURS_PER_YEAR
    staff_hours = (
        0.0
        if media.is_online
        else audits_per_year * media.effective_audit_hours()
    )
    return AuditCostComparison(
        media_name=media.name,
        audits_per_year=audits_per_year,
        mdl_hours=model.mean_detect_latent,
        mttdl_years=mttdl_years,
        annual_audit_cost=media.annual_audit_cost(audits_per_year),
        audit_induced_faults_per_year=induced_per_year,
        staff_hours_per_year=staff_hours,
    )


def compare_online_offline(
    online: MediaSpec,
    offline: MediaSpec,
    online_audits_per_year: float,
    offline_audits_per_year: float,
    correlation_factor: float = 1.0,
) -> Dict[str, AuditCostComparison]:
    """The paper's disk-vs-tape question at chosen audit rates.

    Returns one :class:`AuditCostComparison` per media class, keyed
    ``"online"`` / ``"offline"``.  The typical configuration audits the
    on-line replica often (it is cheap) and the off-line replica rarely
    (each pass is expensive and risky), which is precisely why the
    on-line replica ends up orders of magnitude more reliable.
    """
    return {
        "online": evaluate_media_audit(
            online, online_audits_per_year, correlation_factor
        ),
        "offline": evaluate_media_audit(
            offline, offline_audits_per_year, correlation_factor
        ),
    }
