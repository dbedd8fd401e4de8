"""Exponential loss-probability arithmetic (paper Eq. 1 and Section 5.4).

The model treats double-fault data loss as a memoryless process with mean
time MTTDL, so the probability of losing the data within a mission time
``t`` is ``1 - exp(-t / MTTDL)``.  The paper uses this to convert the
worked MTTDL values into "probability of data loss in 50 years" figures.
"""

from __future__ import annotations

import math


def exponential_cdf(t: float, mean_time: float) -> float:
    """``P(T <= t)`` for an exponential variable with the given mean.

    This is the paper's Eq. 1, ``P(t) = 1 - e^{-t / MTTF}``.

    Raises:
        ValueError: if ``mean_time`` is not positive or ``t`` is negative.
    """
    if mean_time <= 0:
        raise ValueError(f"mean_time must be positive, got {mean_time!r}")
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t!r}")
    # expm1 keeps precision when t << mean_time, where 1 - exp(-x)
    # underflows to 0 long before the probability actually vanishes.
    return -math.expm1(-t / mean_time)


def probability_of_loss(mttdl: float, mission_time: float) -> float:
    """Probability of at least one data-loss event within ``mission_time``.

    Both arguments are in hours.  The paper reports, for example, a 79.0%
    probability of loss in 50 years for the unscrubbed mirrored Cheetah
    pair whose MTTDL is 32.0 years.

    Args:
        mttdl: mean time to data loss in hours.
        mission_time: how long the data must survive, in hours.
    """
    return exponential_cdf(mission_time, mttdl)


def mttdl_for_loss_probability(loss_probability: float, mission_time: float) -> float:
    """Invert :func:`probability_of_loss`.

    Given a tolerable loss probability over a mission time, return the
    MTTDL (same unit as ``mission_time``) the system must achieve.

    Raises:
        ValueError: if ``loss_probability`` is not strictly between 0 and
            1, or ``mission_time`` is not positive.
    """
    if not 0 < loss_probability < 1:
        raise ValueError(
            "loss_probability must be strictly between 0 and 1, got "
            f"{loss_probability!r}"
        )
    if mission_time <= 0:
        raise ValueError(f"mission_time must be positive, got {mission_time!r}")
    return -mission_time / math.log(1.0 - loss_probability)
