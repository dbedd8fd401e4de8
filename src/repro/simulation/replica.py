"""Per-replica state machine for the simulator.

Each replica of the data unit is in one of four states mirroring the
mirrored-pair Markov chain: intact, failed with a visible fault (repair
under way), silently corrupt (latent fault awaiting detection), or
corrupt-and-detected (repair under way).  The replica records when its
current fault occurred and when it was detected so the trace-based
experiments can measure empirical detection latencies and windows of
vulnerability.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.faults import FaultType


class ReplicaState(enum.Enum):
    """Health of one replica."""

    OK = "ok"
    VISIBLE_FAILED = "visible_failed"
    LATENT_UNDETECTED = "latent_undetected"
    LATENT_DETECTED = "latent_detected"

    @property
    def is_faulty(self) -> bool:
        return self is not ReplicaState.OK

    @property
    def is_latent(self) -> bool:
        return self in (ReplicaState.LATENT_UNDETECTED, ReplicaState.LATENT_DETECTED)


@dataclass
class Replica:
    """One copy of the preserved data unit.

    Attributes:
        index: position of the replica in the system.
        state: current health state.
        fault_time: when the current fault occurred (hours), if any.
        detection_time: when the current latent fault was detected, if it
            has been.
        visible_faults: lifetime count of visible faults suffered.
        latent_faults: lifetime count of latent faults suffered.
        repairs_completed: lifetime count of completed repairs.
    """

    index: int
    state: ReplicaState = ReplicaState.OK
    fault_time: Optional[float] = None
    detection_time: Optional[float] = None
    visible_faults: int = 0
    latent_faults: int = 0
    repairs_completed: int = 0
    # Cumulative time spent faulty, maintained by the system on state
    # transitions so availability statistics can be reported.
    faulty_hours: float = field(default=0.0)
    _faulty_since: Optional[float] = field(default=None, repr=False)

    @property
    def is_faulty(self) -> bool:
        return self.state.is_faulty

    @property
    def current_fault_type(self) -> Optional[FaultType]:
        """The type of the outstanding fault, if any."""
        if self.state is ReplicaState.VISIBLE_FAILED:
            return FaultType.VISIBLE
        if self.state.is_latent:
            return FaultType.LATENT
        return None

    def suffer_fault(self, fault_type: FaultType, time: float) -> None:
        """Transition into a faulty state at ``time``.

        A fault striking an already-faulty replica is counted but does
        not change the state (the replica is already useless for
        recovery purposes).

        Raises:
            ValueError: if ``time`` is negative.
        """
        if time < 0:
            raise ValueError("time must be non-negative")
        if fault_type is FaultType.VISIBLE:
            self.visible_faults += 1
        else:
            self.latent_faults += 1
        if self.is_faulty:
            # Already faulty: a visible fault supersedes a latent one
            # because it is at least detected.
            if (
                fault_type is FaultType.VISIBLE
                and self.state is ReplicaState.LATENT_UNDETECTED
            ):
                self.state = ReplicaState.VISIBLE_FAILED
                self.detection_time = time
            return
        self.fault_time = time
        self._faulty_since = time
        if fault_type is FaultType.VISIBLE:
            self.state = ReplicaState.VISIBLE_FAILED
            self.detection_time = time
        else:
            self.state = ReplicaState.LATENT_UNDETECTED
            self.detection_time = None

    def detect(self, time: float) -> bool:
        """Mark an undetected latent fault as detected.

        Returns:
            True if a detection actually happened (the replica was in the
            latent-undetected state), False otherwise.
        """
        if self.state is not ReplicaState.LATENT_UNDETECTED:
            return False
        if self.fault_time is not None and time < self.fault_time:
            raise ValueError("detection cannot precede the fault")
        self.state = ReplicaState.LATENT_DETECTED
        self.detection_time = time
        return True

    def repair(self, time: float) -> None:
        """Return the replica to the intact state.

        Raises:
            ValueError: if the replica is not faulty.
        """
        if not self.is_faulty:
            raise ValueError(f"replica {self.index} is not faulty")
        if self._faulty_since is not None:
            self.faulty_hours += max(time - self._faulty_since, 0.0)
        self.state = ReplicaState.OK
        self.fault_time = None
        self.detection_time = None
        self._faulty_since = None
        self.repairs_completed += 1
