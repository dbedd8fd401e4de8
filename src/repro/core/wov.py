"""Window-of-vulnerability probabilities (paper Eqs. 3-6).

After a first fault occurs on one copy of a mirrored pair, the data is
vulnerable until that fault is repaired.  The paper distinguishes the
window following a *visible* first fault (mean length ``MRV``) from the
window following a *latent* first fault (mean length ``MDL + MRL``), and
computes the probability of each kind of second fault arriving within
each window.  Correlation shortens the effective mean time to the second
fault by the factor ``α``.
"""

from __future__ import annotations

import math

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel


def _second_fault_probability(
    window: float, mean_time_to_second: float, alpha: float, exact: bool
) -> float:
    """Probability of a second fault within a window.

    In the linearised form used by the paper this is
    ``window / (alpha * mean_time_to_second)`` (Eqs. 3-6 times 1/α), which
    assumes the window is much shorter than the mean time to the second
    fault.  With ``exact=True`` we use the exponential CDF instead, which
    stays within [0, 1] even for long windows — the regime the paper
    handles separately by "P(V2 or L2 | L1) approaches 1".
    """
    if window < 0:
        raise ValueError("window must be non-negative")
    if mean_time_to_second <= 0:
        raise ValueError("mean_time_to_second must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    effective_mean = alpha * mean_time_to_second
    if exact:
        return 1.0 - math.exp(-window / effective_mean)
    return window / effective_mean


def prob_second_fault_after_visible(
    model: FaultModel, second_fault: FaultType, exact: bool = False
) -> float:
    """Paper Eqs. 3 and 4 (with the correlation factor applied).

    Probability that a fault of ``second_fault`` type strikes the
    surviving copy during the repair window (``MRV``) that follows a
    visible first fault.
    """
    mean_time = (
        model.mean_time_to_visible
        if second_fault is FaultType.VISIBLE
        else model.mean_time_to_latent
    )
    return _second_fault_probability(
        model.visible_window, mean_time, model.correlation_factor, exact
    )


def prob_second_fault_after_latent(
    model: FaultModel, second_fault: FaultType, exact: bool = False
) -> float:
    """Paper Eqs. 5 and 6 (with the correlation factor applied).

    Probability that a fault of ``second_fault`` type strikes the
    surviving copy during the detection-plus-repair window
    (``MDL + MRL``) that follows a latent first fault.
    """
    mean_time = (
        model.mean_time_to_visible
        if second_fault is FaultType.VISIBLE
        else model.mean_time_to_latent
    )
    return _second_fault_probability(
        model.latent_window, mean_time, model.correlation_factor, exact
    )


def prob_any_second_fault_after_latent(model: FaultModel, exact: bool = False) -> float:
    """``P(V2 or L2 | L1)`` — probability of *any* second fault in the
    window following a latent first fault.

    The paper notes that when ``MDL`` is large this combined probability
    approaches 1, which is how the "no scrubbing" worked example is
    evaluated.  The linearised sum is capped at 1 to preserve that
    behaviour; the exact form computes the combined exponential.
    """
    if exact:
        combined_rate = (
            1.0 / (model.correlation_factor * model.mean_time_to_visible)
            + 1.0 / (model.correlation_factor * model.mean_time_to_latent)
        )
        return 1.0 - math.exp(-model.latent_window * combined_rate)
    total = prob_second_fault_after_latent(
        model, FaultType.VISIBLE, exact=False
    ) + prob_second_fault_after_latent(model, FaultType.LATENT, exact=False)
    return min(total, 1.0)


def prob_any_second_fault_after_visible(
    model: FaultModel, exact: bool = False
) -> float:
    """``P(V2 or L2 | V1)`` — probability of any second fault in the
    repair window following a visible first fault."""
    if exact:
        combined_rate = (
            1.0 / (model.correlation_factor * model.mean_time_to_visible)
            + 1.0 / (model.correlation_factor * model.mean_time_to_latent)
        )
        return 1.0 - math.exp(-model.visible_window * combined_rate)
    total = prob_second_fault_after_visible(
        model, FaultType.VISIBLE, exact=False
    ) + prob_second_fault_after_visible(model, FaultType.LATENT, exact=False)
    return min(total, 1.0)


def second_fault_probabilities(model: FaultModel, exact: bool = False) -> dict:
    """All four conditional probabilities from Figure 2 of the paper.

    Returns a dictionary keyed by ``(first, second)`` tuples of
    :class:`FaultType`, covering visible→visible, visible→latent,
    latent→visible and latent→latent.
    """
    return {
        (FaultType.VISIBLE, FaultType.VISIBLE): prob_second_fault_after_visible(
            model, FaultType.VISIBLE, exact
        ),
        (FaultType.VISIBLE, FaultType.LATENT): prob_second_fault_after_visible(
            model, FaultType.LATENT, exact
        ),
        (FaultType.LATENT, FaultType.VISIBLE): prob_second_fault_after_latent(
            model, FaultType.VISIBLE, exact
        ),
        (FaultType.LATENT, FaultType.LATENT): prob_second_fault_after_latent(
            model, FaultType.LATENT, exact
        ),
    }
