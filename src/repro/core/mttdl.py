"""Mean time to data loss for mirrored data (paper Eqs. 7 and 8).

Mirrored data is lost when a second fault strikes the surviving copy
before the first fault has been repaired — a *double fault*.  Equation 7
sums, over both kinds of first fault, the rate at which first faults
occur times the probability a second fault lands inside the resulting
window of vulnerability.  Equation 8 is the closed form obtained by
substituting the linearised window probabilities and the correlation
factor.

Two evaluation modes are provided:

* :func:`mirrored_mttdl` — the paper's formulation: linearised window
  probabilities, with the combined second-fault probability capped at 1
  when a window is so long that the approximation breaks down (this is
  exactly how the paper evaluates the "no scrubbing" example, where it
  substitutes ``P(V2 or L2 | L1) ≈ 1``).
* :func:`mirrored_mttdl_exact` — uses exponential window probabilities
  instead of the linearisation, which never exceed 1 and smoothly cover
  both regimes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.wov import (
    prob_any_second_fault_after_latent,
    prob_any_second_fault_after_visible,
    second_fault_probabilities,
)


@dataclass(frozen=True)
class DoubleFaultBreakdown:
    """Contribution of each first/second fault combination to data loss.

    All fields are rates (per hour).  ``total`` is the double-fault data
    loss rate, i.e. ``1 / MTTDL``.
    """

    visible_then_visible: float
    visible_then_latent: float
    latent_then_visible: float
    latent_then_latent: float

    @property
    def total(self) -> float:
        return (
            self.visible_then_visible
            + self.visible_then_latent
            + self.latent_then_visible
            + self.latent_then_latent
        )

    def as_dict(self) -> Dict[Tuple[FaultType, FaultType], float]:
        return {
            (FaultType.VISIBLE, FaultType.VISIBLE): self.visible_then_visible,
            (FaultType.VISIBLE, FaultType.LATENT): self.visible_then_latent,
            (FaultType.LATENT, FaultType.VISIBLE): self.latent_then_visible,
            (FaultType.LATENT, FaultType.LATENT): self.latent_then_latent,
        }

    def fractions(self) -> Dict[Tuple[FaultType, FaultType], float]:
        """Each combination's share of the total double-fault rate."""
        total = self.total
        if total == 0:
            return {key: 0.0 for key in self.as_dict()}
        return {key: value / total for key, value in self.as_dict().items()}


def double_fault_breakdown(
    model: FaultModel, exact: bool = False, cap_windows: bool = True
) -> DoubleFaultBreakdown:
    """Per-combination double-fault rates (the terms of Eq. 7).

    Args:
        model: the fault model parameters.
        exact: use exponential window probabilities rather than the
            paper's linearisation.
        cap_windows: when using the linearised probabilities, rescale the
            second-fault probabilities within a window so their sum never
            exceeds 1 (the paper's ``P(V2 or L2 | L1) ≈ 1`` substitution).
            Ignored when ``exact`` is true.
    """
    probs = second_fault_probabilities(model, exact=exact)
    p_vv = probs[(FaultType.VISIBLE, FaultType.VISIBLE)]
    p_vl = probs[(FaultType.VISIBLE, FaultType.LATENT)]
    p_lv = probs[(FaultType.LATENT, FaultType.VISIBLE)]
    p_ll = probs[(FaultType.LATENT, FaultType.LATENT)]

    if not exact and cap_windows:
        p_vv, p_vl = _cap_pair(p_vv, p_vl)
        p_lv, p_ll = _cap_pair(p_lv, p_ll)

    visible_rate = model.visible_rate
    latent_rate = model.latent_rate
    return DoubleFaultBreakdown(
        visible_then_visible=visible_rate * p_vv,
        visible_then_latent=visible_rate * p_vl,
        latent_then_visible=latent_rate * p_lv,
        latent_then_latent=latent_rate * p_ll,
    )


def _cap_pair(p_first: float, p_second: float) -> Tuple[float, float]:
    """Rescale a pair of window probabilities so their sum is at most 1."""
    total = p_first + p_second
    if total <= 1.0:
        return p_first, p_second
    scale = 1.0 / total
    return p_first * scale, p_second * scale


def double_fault_rate(
    model: FaultModel, exact: bool = False, cap_windows: bool = True
) -> float:
    """The double-fault data-loss rate ``1 / MTTDL`` (paper Eq. 7).

    The rate sums, for each kind of first fault, the first-fault rate
    times the probability that any second fault arrives within the
    resulting window of vulnerability.
    """
    if exact:
        p_after_visible = prob_any_second_fault_after_visible(model, exact=True)
        p_after_latent = prob_any_second_fault_after_latent(model, exact=True)
    else:
        p_after_visible = prob_any_second_fault_after_visible(model, exact=False)
        p_after_latent = prob_any_second_fault_after_latent(model, exact=False)
        if not cap_windows:
            # Recompute without the min(..., 1) cap for the raw Eq. 8 form.
            p_after_visible = model.visible_window / (
                model.correlation_factor * model.mean_time_to_visible
            ) + model.visible_window / (
                model.correlation_factor * model.mean_time_to_latent
            )
            p_after_latent = model.latent_window / (
                model.correlation_factor * model.mean_time_to_visible
            ) + model.latent_window / (
                model.correlation_factor * model.mean_time_to_latent
            )
    return (
        model.visible_rate * p_after_visible + model.latent_rate * p_after_latent
    )


def mirrored_mttdl(
    model: FaultModel, exact: bool = False, cap_windows: bool = True
) -> float:
    """Mean time to data loss of a mirrored pair, in hours.

    With ``exact=False`` and ``cap_windows=True`` (the defaults) this
    evaluates the model exactly as the paper does in its Section 5.4
    worked examples: the linearised Eq. 8, except that when a window of
    vulnerability is long enough that the linearised second-fault
    probability would exceed 1 it is capped at 1.

    Returns:
        MTTDL in hours.
    """
    rate = double_fault_rate(model, exact=exact, cap_windows=cap_windows)
    if rate <= 0:
        return float("inf")
    return 1.0 / rate


def mirrored_mttdl_exact(model: FaultModel) -> float:
    """Mean time to data loss using exponential window probabilities."""
    return mirrored_mttdl(model, exact=True)
