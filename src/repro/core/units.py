"""Time-unit conversions used throughout the model.

The paper quotes fault parameters in hours (drive MTTFs), minutes (repair
times), and years (MTTDL results, mission lifetimes).  All internal model
arithmetic is done in hours; these helpers convert at the boundaries.

The paper's worked examples divide by 8760 hours per year (365 days), so
we use that constant rather than the Julian-year 8766.
"""

from __future__ import annotations

HOURS_PER_YEAR = 8760.0


def years_to_hours(years: float) -> float:
    """Convert a duration in years to hours."""
    return years * HOURS_PER_YEAR
