"""Audit / scrubbing strategy analysis (paper Sections 6.2-6.3).

Where :mod:`repro.simulation.scrubbing` provides the audit grid for the
simulators, this subpackage answers the policy-level questions
analytically: what detection latency does a given audit schedule
achieve, what does auditing cost for on-line vs off-line media, and how
much bandwidth does auditing consume.
"""

from repro.audit.policies import (
    AuditSchedule,
    periodic_schedule,
    detection_latency,
)
from repro.audit.online_offline import (
    AuditCostComparison,
    compare_online_offline,
    audit_bandwidth_fraction,
    audit_induced_fault_rate,
)

__all__ = [
    "AuditSchedule",
    "periodic_schedule",
    "detection_latency",
    "AuditCostComparison",
    "compare_online_offline",
    "audit_bandwidth_fraction",
    "audit_induced_fault_rate",
]
