"""The :class:`FaultModel` parameter set of the paper's analytic model.

Paper notation (Section 5.1):

=========  =====================================================
``MV``     mean time to a visible fault
``MRV``    mean time to repair a visible fault
``ML``     mean time to a latent fault
``MRL``    mean time to repair a latent fault (once detected)
``MDL``    mean time from occurrence to detection of a latent fault
``α``      multiplicative correlation factor, 0 < α ≤ 1; smaller
           means more correlated (the mean time to the *second*
           fault within a window of vulnerability is α times the
           unconditional mean time)
=========  =====================================================

All times are in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict

from repro.core.faults import FaultSpec, FaultType, latent_fault, visible_fault
from repro.core.units import HOURS_PER_YEAR


def json_required(payload: Dict[str, object], key: str, path: str) -> object:
    """``payload[key]``; a ``ValueError`` naming the JSON ``path`` of the
    field when it is missing."""
    if key not in payload:
        raise ValueError(f"'{path}' is required")
    return payload[key]


def json_number(value: object, path: str) -> float:
    """``value`` as a float when it is a finite JSON number (an int or a
    float, not a bool); otherwise a ``ValueError`` naming its JSON
    ``path``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"'{path}' must be a finite number")


def json_integer(value: object, path: str) -> int:
    """``value`` as an int when it is an integral JSON number (``2000.0``
    counts, a bool does not); otherwise a ``ValueError`` naming its JSON
    ``path``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"'{path}' must be an integer")


def json_boolean(value: object, path: str) -> bool:
    """``value`` when it is a JSON boolean (the string ``"false"`` is
    not); otherwise a ``ValueError`` naming its JSON ``path``."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"'{path}' must be true or false")


def json_string(value: object, path: str) -> str:
    """``value`` when it is a JSON string; otherwise a ``ValueError``
    naming its JSON ``path``."""
    if isinstance(value, str):
        return value
    raise ValueError(f"'{path}' must be a string")


def mdl_from_audit_rate(
    audits_per_year: float, mean_time_to_latent: float
) -> float:
    """``MDL`` (hours) of latent faults audited ``audits_per_year`` times.

    Half the audit interval: detection is perfect and latent faults
    arrive uniformly (paper Section 6.2).  A rate of zero gives
    ``mean_time_to_latent``, the ``MDL`` from which the simulators stop
    scrubbing altogether
    (:func:`repro.simulation.scrubbing.audit_interval_for`).
    """
    if audits_per_year < 0:
        raise ValueError("audits_per_year must be non-negative")
    if audits_per_year == 0:
        return mean_time_to_latent
    return HOURS_PER_YEAR / audits_per_year / 2.0


#: The paper's parameter names, mapped to :class:`FaultModel` fields.
PARAMETER_FIELDS: Dict[str, str] = {
    "MV": "mean_time_to_visible",
    "ML": "mean_time_to_latent",
    "MRV": "mean_repair_visible",
    "MRL": "mean_repair_latent",
    "MDL": "mean_detect_latent",
    "alpha": "correlation_factor",
}


@dataclass(frozen=True)
class FaultModel:
    """Parameters of the paper's reliability model for one replica.

    Attributes:
        mean_time_to_visible: ``MV``, hours.
        mean_time_to_latent: ``ML``, hours.
        mean_repair_visible: ``MRV``, hours.
        mean_repair_latent: ``MRL``, hours.
        mean_detect_latent: ``MDL``, hours.
        correlation_factor: ``α`` in (0, 1]; 1 means fully independent
            faults, smaller values mean stronger correlation.
    """

    mean_time_to_visible: float
    mean_time_to_latent: float
    mean_repair_visible: float
    mean_repair_latent: float
    mean_detect_latent: float
    correlation_factor: float = 1.0

    def __post_init__(self) -> None:
        # Negated comparisons, so NaN fails every check.
        if not self.mean_time_to_visible > 0:
            raise ValueError("mean_time_to_visible (MV) must be positive")
        if not self.mean_time_to_latent > 0:
            raise ValueError("mean_time_to_latent (ML) must be positive")
        if not self.mean_repair_visible >= 0:
            raise ValueError("mean_repair_visible (MRV) must be non-negative")
        if not self.mean_repair_latent >= 0:
            raise ValueError("mean_repair_latent (MRL) must be non-negative")
        if not self.mean_detect_latent >= 0:
            raise ValueError("mean_detect_latent (MDL) must be non-negative")
        if not 0 < self.correlation_factor <= 1:
            raise ValueError(
                "correlation_factor (alpha) must be in (0, 1], got "
                f"{self.correlation_factor!r}"
            )

    # -- short aliases matching the paper's notation ---------------------

    @property
    def mv(self) -> float:
        """``MV`` — mean time to a visible fault (hours)."""
        return self.mean_time_to_visible

    @property
    def ml(self) -> float:
        """``ML`` — mean time to a latent fault (hours)."""
        return self.mean_time_to_latent

    @property
    def mrv(self) -> float:
        """``MRV`` — mean time to repair a visible fault (hours)."""
        return self.mean_repair_visible

    @property
    def mrl(self) -> float:
        """``MRL`` — mean time to repair a latent fault (hours)."""
        return self.mean_repair_latent

    @property
    def mdl(self) -> float:
        """``MDL`` — mean time to detect a latent fault (hours)."""
        return self.mean_detect_latent

    @property
    def alpha(self) -> float:
        """``α`` — multiplicative correlation factor."""
        return self.correlation_factor

    # -- derived quantities ----------------------------------------------

    @property
    def visible_rate(self) -> float:
        """Occurrence rate of visible faults per replica (per hour)."""
        return 1.0 / self.mean_time_to_visible

    @property
    def latent_rate(self) -> float:
        """Occurrence rate of latent faults per replica (per hour)."""
        return 1.0 / self.mean_time_to_latent

    @property
    def total_fault_rate(self) -> float:
        """Combined fault occurrence rate per replica (per hour)."""
        return self.visible_rate + self.latent_rate

    @property
    def visible_window(self) -> float:
        """Window of vulnerability after a visible fault (hours)."""
        return self.mean_repair_visible

    @property
    def latent_window(self) -> float:
        """Window of vulnerability after a latent fault (hours).

        Includes the detection delay and the repair time
        (paper Section 5.3, Figure 2 discussion).
        """
        return self.mean_detect_latent + self.mean_repair_latent

    # -- fault specs -------------------------------------------------------

    def visible_spec(self) -> FaultSpec:
        """The visible fault process as a :class:`FaultSpec`."""
        return visible_fault(
            mean_time_to_fault=self.mean_time_to_visible,
            mean_repair_time=self.mean_repair_visible,
            description="visible fault",
        )

    def latent_spec(self) -> FaultSpec:
        """The latent fault process as a :class:`FaultSpec`."""
        return latent_fault(
            mean_time_to_fault=self.mean_time_to_latent,
            mean_repair_time=self.mean_repair_latent,
            mean_detection_time=self.mean_detect_latent,
            description="latent fault",
        )

    def spec(self, fault_type: FaultType) -> FaultSpec:
        """Return the :class:`FaultSpec` for the requested fault type."""
        if fault_type is FaultType.VISIBLE:
            return self.visible_spec()
        return self.latent_spec()

    # -- evolution helpers -------------------------------------------------

    def with_correlation(self, alpha: float) -> "FaultModel":
        """Return a copy with a different correlation factor."""
        return replace(self, correlation_factor=alpha)

    def with_detection_time(self, mdl: float) -> "FaultModel":
        """Return a copy with a different mean latent detection time."""
        return replace(self, mean_detect_latent=mdl)

    def with_audit_rate(self, audits_per_year: float) -> "FaultModel":
        """Return a copy whose ``MDL`` a periodic audit rate implies
        (:func:`mdl_from_audit_rate`)."""
        return self.with_detection_time(
            mdl_from_audit_rate(audits_per_year, self.mean_time_to_latent)
        )

    def with_visible_mean_time(self, mv: float) -> "FaultModel":
        """Return a copy with a different mean time to visible faults."""
        return replace(self, mean_time_to_visible=mv)

    def scaled(self, factor: float) -> "FaultModel":
        """Return a copy with both fault mean times scaled by ``factor``.

        Useful for modelling better or worse media without changing the
        repair and detection machinery.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return replace(
            self,
            mean_time_to_visible=self.mean_time_to_visible * factor,
            mean_time_to_latent=self.mean_time_to_latent * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Return the parameters as a plain dictionary (paper notation)."""
        return {
            "MV": self.mean_time_to_visible,
            "ML": self.mean_time_to_latent,
            "MRV": self.mean_repair_visible,
            "MRL": self.mean_repair_latent,
            "MDL": self.mean_detect_latent,
            "alpha": self.correlation_factor,
        }

    @staticmethod
    def from_dict(
        payload: Dict[str, object], path: str = "model"
    ) -> "FaultModel":
        """Rebuild a model from :meth:`as_dict`'s paper-notation keys.

        A missing field, or a value that is not a finite number, raises a
        ``ValueError`` naming its JSON path (``path`` is the model's own).
        """

        def number(key: str) -> float:
            field_path = f"{path}.{key}"
            return json_number(
                json_required(payload, key, field_path), field_path
            )

        return FaultModel(
            mean_time_to_visible=number("MV"),
            mean_time_to_latent=number("ML"),
            mean_repair_visible=number("MRV"),
            mean_repair_latent=number("MRL"),
            mean_detect_latent=number("MDL"),
            correlation_factor=number("alpha"),
        )

    def describe(self) -> str:
        """Return a readable multi-line description of the parameters."""
        lines = [
            f"MV    = {self.mean_time_to_visible:.6g} h "
            f"({self.mean_time_to_visible / HOURS_PER_YEAR:.3g} yr)",
            f"ML    = {self.mean_time_to_latent:.6g} h "
            f"({self.mean_time_to_latent / HOURS_PER_YEAR:.3g} yr)",
            f"MRV   = {self.mean_repair_visible:.6g} h",
            f"MRL   = {self.mean_repair_latent:.6g} h",
            f"MDL   = {self.mean_detect_latent:.6g} h",
            f"alpha = {self.correlation_factor:.6g}",
        ]
        return "\n".join(lines)
