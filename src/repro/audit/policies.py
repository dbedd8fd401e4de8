"""Analytic view of audit schedules and the detection latency they buy.

The paper's central scrubbing result (Section 6.2): with perfect
detection and randomly-arriving latent faults, the mean detection delay
``MDL`` of a periodic audit is half the audit interval, so auditing three
times a year gives ``MDL`` = 1460 hours and turns a 32-year MTTDL into a
six-thousand-year one.  These helpers convert between audit schedules,
detection latencies, and the audit rate needed to hit a target
reliability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR


class AuditKind(enum.Enum):
    """How audit passes are spaced in time."""

    PERIODIC = "periodic"
    POISSON = "poisson"
    ON_ACCESS = "on_access"
    NONE = "none"


@dataclass(frozen=True)
class AuditSchedule:
    """An audit cadence plus its detection characteristics.

    Attributes:
        kind: how audits are spaced.
        audits_per_year: mean audit passes per replica per year (0 for
            no auditing).
        coverage: probability one pass detects an outstanding latent
            fault.
    """

    kind: AuditKind
    audits_per_year: float
    coverage: float = 1.0

    def __post_init__(self) -> None:
        if self.audits_per_year < 0:
            raise ValueError("audits_per_year must be non-negative")
        if not 0 < self.coverage <= 1:
            raise ValueError("coverage must be in (0, 1]")
        if self.kind is AuditKind.NONE and self.audits_per_year != 0:
            raise ValueError("a NONE schedule must have zero audits per year")
        if self.kind is not AuditKind.NONE and self.audits_per_year == 0:
            raise ValueError("a non-NONE schedule needs a positive audit rate")

    @property
    def interval_hours(self) -> float:
        """Mean hours between audit passes (inf when never auditing)."""
        if self.audits_per_year == 0:
            return float("inf")
        return HOURS_PER_YEAR / self.audits_per_year


def periodic_schedule(audits_per_year: float, coverage: float = 1.0) -> AuditSchedule:
    """A strictly periodic audit schedule."""
    if audits_per_year <= 0:
        return AuditSchedule(kind=AuditKind.NONE, audits_per_year=0.0)
    return AuditSchedule(
        kind=AuditKind.PERIODIC, audits_per_year=audits_per_year, coverage=coverage
    )


def detection_latency(schedule: AuditSchedule) -> float:
    """Mean latent-fault detection latency of a schedule, in hours.

    Periodic audits give half an interval plus full intervals for missed
    detections; Poisson and on-access schedules are memoryless, so the
    delay to the next pass is a full mean interval, divided by coverage.
    """
    if schedule.kind is AuditKind.NONE or schedule.audits_per_year == 0:
        return float("inf")
    interval = schedule.interval_hours
    if schedule.kind is AuditKind.PERIODIC:
        return interval / 2.0 + (1.0 / schedule.coverage - 1.0) * interval
    return interval / schedule.coverage


def audits_needed_for_target_mttdl(
    model: FaultModel,
    target_mttdl_years: float,
    kind: AuditKind = AuditKind.PERIODIC,
    coverage: float = 1.0,
    max_audits_per_year: float = 10000.0,
) -> Optional[float]:
    """Smallest audit rate achieving a target MTTDL, or None if
    unreachable even with ``max_audits_per_year``.

    Uses bisection on the audit rate: the mirrored MTTDL is monotone in
    the detection latency, which is monotone in the audit rate.
    """
    if target_mttdl_years <= 0:
        raise ValueError("target_mttdl_years must be positive")
    target_hours = target_mttdl_years * HOURS_PER_YEAR

    def mttdl_at(audits_per_year: float) -> float:
        if audits_per_year == 0:
            schedule = AuditSchedule(kind=AuditKind.NONE, audits_per_year=0.0)
        else:
            schedule = AuditSchedule(
                kind=kind, audits_per_year=audits_per_year, coverage=coverage
            )
        mdl = detection_latency(schedule)
        if mdl == float("inf"):
            mdl = model.mean_time_to_latent
        return mirrored_mttdl(model.with_detection_time(mdl))

    if mttdl_at(max_audits_per_year) < target_hours:
        return None
    if mttdl_at(0.0) >= target_hours:
        return 0.0
    low, high = 0.0, max_audits_per_year
    for _ in range(80):
        mid = (low + high) / 2.0
        if mttdl_at(mid) >= target_hours:
            high = mid
        else:
            low = mid
    return high
