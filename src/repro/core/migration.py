"""Format / media migration planning.

The paper treats format and media obsolescence as *latent* faults at a
higher layer (Section 6: "we can use a similar process of cycling
through the data, albeit at a reduced frequency, to detect data in
endangered formats and convert to new formats before we can no longer
interpret the old formats").  This module applies the same machinery to
that layer: given how often formats become endangered, how long a
migration sweep takes, and how often the collection is checked for
endangered formats, it computes the probability of ending up with
uninterpretable data and the checking cadence needed to bound it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class FormatRisk:
    """Obsolescence risk profile of one format family.

    Attributes:
        name: format label (e.g. ``"camera RAW"``, ``"TIFF"``).
        mean_years_to_endangered: mean years until the format becomes
            endangered (readers start disappearing).
        mean_years_endangered_to_dead: mean years from "endangered" to
            "uninterpretable" (the window in which migration is still
            possible).
        migration_sweep_years: years needed to convert the whole
            collection once the need is recognised.
        proprietary: proprietary formats carry a higher obsolescence
            hazard and are flagged for reporting.
    """

    name: str
    mean_years_to_endangered: float
    mean_years_endangered_to_dead: float
    migration_sweep_years: float
    proprietary: bool = False

    def __post_init__(self) -> None:
        # Negated comparisons, so NaN fails every check.
        if not self.mean_years_to_endangered > 0:
            raise ValueError("mean_years_to_endangered must be positive")
        if not self.mean_years_endangered_to_dead > 0:
            raise ValueError("mean_years_endangered_to_dead must be positive")
        if not self.migration_sweep_years > 0:
            raise ValueError("migration_sweep_years must be positive")


#: A handful of representative format risk profiles.  Proprietary camera
#: RAW is the paper's running example of a fragile format.
CAMERA_RAW = FormatRisk(
    name="proprietary camera RAW",
    mean_years_to_endangered=8.0,
    mean_years_endangered_to_dead=5.0,
    migration_sweep_years=1.0,
    proprietary=True,
)

OPEN_DOCUMENT_FORMAT = FormatRisk(
    name="open documented format",
    mean_years_to_endangered=40.0,
    mean_years_endangered_to_dead=20.0,
    migration_sweep_years=1.0,
    proprietary=False,
)

LEGACY_DATABASE_DUMP = FormatRisk(
    name="legacy database dump",
    mean_years_to_endangered=12.0,
    mean_years_endangered_to_dead=6.0,
    migration_sweep_years=2.0,
    proprietary=True,
)


def probability_uninterpretable(
    risk: FormatRisk,
    format_checks_per_year: float,
    mission_years: float = 50.0,
) -> float:
    """Probability the collection's data becomes uninterpretable.

    The format dies if it goes from healthy to endangered to dead before
    a review cycle notices and the migration sweep completes.  With
    exponential clocks, the probability that the review-plus-sweep
    (duration ``D`` on average) finishes before the endangered-to-dead
    clock (mean ``T``) fires is ``T / (T + D)``; the complement is the
    per-endangerment death probability, and endangerment events arrive
    at ``1 / mean_years_to_endangered``.
    """
    if mission_years <= 0:
        raise ValueError("mission_years must be positive")
    if format_checks_per_year < 0:
        raise ValueError("format_checks_per_year must be non-negative")
    if format_checks_per_year == 0:
        review_delay_years = risk.mean_years_to_endangered
    else:
        review_delay_years = 1.0 / format_checks_per_year / 2.0
    exposure_years = review_delay_years + risk.migration_sweep_years
    death_probability_per_event = exposure_years / (
        exposure_years + risk.mean_years_endangered_to_dead
    )
    endangerment_rate = 1.0 / risk.mean_years_to_endangered
    death_rate = endangerment_rate * death_probability_per_event
    return 1.0 - math.exp(-death_rate * mission_years)


def review_rate_for_target(
    risk: FormatRisk,
    max_probability: float,
    mission_years: float = 50.0,
    max_checks_per_year: float = 12.0,
) -> Optional[float]:
    """Smallest format-review rate bounding the uninterpretability risk.

    Returns None when even ``max_checks_per_year`` reviews cannot meet
    the target (the migration sweep itself is then the bottleneck).
    """
    if not 0 < max_probability < 1:
        raise ValueError("max_probability must be in (0, 1)")
    if probability_uninterpretable(risk, max_checks_per_year, mission_years) > max_probability:
        return None
    if probability_uninterpretable(risk, 0.0, mission_years) <= max_probability:
        return 0.0
    low, high = 0.0, max_checks_per_year
    for _ in range(64):
        mid = (low + high) / 2.0
        if probability_uninterpretable(risk, mid, mission_years) <= max_probability:
            high = mid
        else:
            low = mid
    return high


def proprietary_penalty(
    proprietary: FormatRisk, open_format: FormatRisk, format_checks_per_year: float = 1.0
) -> float:
    """How many times likelier uninterpretable data is with the
    proprietary format at the same review cadence."""
    p_prop = probability_uninterpretable(proprietary, format_checks_per_year)
    p_open = probability_uninterpretable(open_format, format_checks_per_year)
    if p_open == 0:
        return float("inf")
    return p_prop / p_open
