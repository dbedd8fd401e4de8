"""Fault vocabulary used by the analytic model and the simulator.

The paper distinguishes two fault *types* from the model's point of view
(Section 5.1):

* **visible** faults — detected essentially at the moment they occur
  (whole-disk failures, controller failures);
* **latent** faults — a significant delay separates occurrence from
  detection (bit rot, unreadable sectors, misdirected writes, data stored
  in obsolete formats, undiscovered deletions).

Separately, Section 3 enumerates the *classes* of threat that produce
those faults.  :class:`FaultClass` captures that taxonomy so threat
generators (``repro.threats``) and the simulator can label which class
caused each injected fault.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class FaultType(enum.Enum):
    """Model-level fault type: visible or latent (paper Section 5.1)."""

    VISIBLE = "visible"
    LATENT = "latent"

    @property
    def is_latent(self) -> bool:
        return self is FaultType.LATENT


class FaultClass(enum.Enum):
    """Threat classes from Section 3 of the paper."""

    LARGE_SCALE_DISASTER = "large_scale_disaster"
    HUMAN_ERROR = "human_error"
    COMPONENT_FAULT = "component_fault"
    MEDIA_FAULT = "media_fault"
    MEDIA_OBSOLESCENCE = "media_obsolescence"
    SOFTWARE_OBSOLESCENCE = "software_obsolescence"
    LOSS_OF_CONTEXT = "loss_of_context"
    ATTACK = "attack"
    ORGANIZATIONAL_FAULT = "organizational_fault"
    ECONOMIC_FAULT = "economic_fault"


#: Default model-level fault type for each threat class.  Several classes
#: manifest latently in the paper's discussion (Section 4.1); disasters
#: and most component faults are immediately visible.
DEFAULT_TYPE_FOR_CLASS = {
    FaultClass.LARGE_SCALE_DISASTER: FaultType.VISIBLE,
    FaultClass.HUMAN_ERROR: FaultType.LATENT,
    FaultClass.COMPONENT_FAULT: FaultType.VISIBLE,
    FaultClass.MEDIA_FAULT: FaultType.LATENT,
    FaultClass.MEDIA_OBSOLESCENCE: FaultType.LATENT,
    FaultClass.SOFTWARE_OBSOLESCENCE: FaultType.LATENT,
    FaultClass.LOSS_OF_CONTEXT: FaultType.LATENT,
    FaultClass.ATTACK: FaultType.LATENT,
    FaultClass.ORGANIZATIONAL_FAULT: FaultType.VISIBLE,
    FaultClass.ECONOMIC_FAULT: FaultType.VISIBLE,
}


@dataclass(frozen=True)
class FaultSpec:
    """A single fault process description.

    Attributes:
        fault_type: whether the fault is visible or latent.
        mean_time_to_fault: mean time between fault occurrences (hours).
        mean_repair_time: mean time to repair once detected (hours).
        mean_detection_time: mean time from occurrence to detection
            (hours).  Must be 0 for visible faults (detection is
            immediate by definition) and non-negative for latent faults.
        fault_class: optional threat class that produces this fault.
        description: optional human-readable label.
    """

    fault_type: FaultType
    mean_time_to_fault: float
    mean_repair_time: float
    mean_detection_time: float = 0.0
    fault_class: Optional[FaultClass] = None
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if self.mean_time_to_fault <= 0:
            raise ValueError(
                "mean_time_to_fault must be positive, got "
                f"{self.mean_time_to_fault!r}"
            )
        if self.mean_repair_time < 0:
            raise ValueError(
                "mean_repair_time must be non-negative, got "
                f"{self.mean_repair_time!r}"
            )
        if self.mean_detection_time < 0:
            raise ValueError(
                "mean_detection_time must be non-negative, got "
                f"{self.mean_detection_time!r}"
            )
        if self.fault_type is FaultType.VISIBLE and self.mean_detection_time != 0:
            raise ValueError(
                "visible faults are detected immediately; "
                "mean_detection_time must be 0"
            )

    @property
    def rate(self) -> float:
        """Occurrence rate of the fault process (per hour)."""
        return 1.0 / self.mean_time_to_fault

    def with_detection_time(self, mean_detection_time: float) -> "FaultSpec":
        """Return a copy with a different mean detection time."""
        return FaultSpec(
            fault_type=self.fault_type,
            mean_time_to_fault=self.mean_time_to_fault,
            mean_repair_time=self.mean_repair_time,
            mean_detection_time=mean_detection_time,
            fault_class=self.fault_class,
            description=self.description,
        )


def visible_fault(
    mean_time_to_fault: float,
    mean_repair_time: float,
    fault_class: Optional[FaultClass] = None,
    description: str = "",
) -> FaultSpec:
    """Convenience constructor for a visible :class:`FaultSpec`."""
    return FaultSpec(
        fault_type=FaultType.VISIBLE,
        mean_time_to_fault=mean_time_to_fault,
        mean_repair_time=mean_repair_time,
        mean_detection_time=0.0,
        fault_class=fault_class,
        description=description,
    )


def latent_fault(
    mean_time_to_fault: float,
    mean_repair_time: float,
    mean_detection_time: float,
    fault_class: Optional[FaultClass] = None,
    description: str = "",
) -> FaultSpec:
    """Convenience constructor for a latent :class:`FaultSpec`."""
    return FaultSpec(
        fault_type=FaultType.LATENT,
        mean_time_to_fault=mean_time_to_fault,
        mean_repair_time=mean_repair_time,
        mean_detection_time=mean_detection_time,
        fault_class=fault_class,
        description=description,
    )
