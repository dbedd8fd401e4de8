"""Trace vocabulary for simulation runs.

Every significant occurrence in a simulated run — a fault, a detection,
a repair, an audit, data loss — is appended to a :class:`Trace` as a
:class:`TraceEvent`.  The trace is what the figure-oriented experiments
(E9 fault timeline, E10 double-fault combinations) post-process, and it
doubles as the "instrumentation" the paper's Section 6.7 asks real
systems to produce.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.core.faults import FaultType


class TraceEventType(enum.Enum):
    """Kinds of events recorded in a simulation trace."""

    FAULT_OCCURRED = "fault_occurred"
    FAULT_DETECTED = "fault_detected"
    REPAIR_STARTED = "repair_started"
    REPAIR_COMPLETED = "repair_completed"
    AUDIT_PERFORMED = "audit_performed"
    DATA_LOSS = "data_loss"


@dataclass(frozen=True)
class TraceEvent:
    """One record in a simulation trace.

    Attributes:
        time: simulated time in hours.
        event_type: what happened.
        replica: index of the replica involved, if any.
        fault_type: visible or latent, for fault-related events.
        detail: free-form extra information (e.g. why the data was lost).
    """

    time: float
    event_type: TraceEventType
    replica: Optional[int] = None
    fault_type: Optional[FaultType] = None
    detail: str = ""


@dataclass
class Trace:
    """An append-only log of :class:`TraceEvent` records."""

    events: List[TraceEvent] = field(default_factory=list)
    enabled: bool = True

    def record(
        self,
        time: float,
        event_type: TraceEventType,
        replica: Optional[int] = None,
        fault_type: Optional[FaultType] = None,
        detail: str = "",
    ) -> None:
        """Append one event (no-op when tracing is disabled)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(
                time=time,
                event_type=event_type,
                replica=replica,
                fault_type=fault_type,
                detail=detail,
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def of_type(self, event_type: TraceEventType) -> List[TraceEvent]:
        """All events of one type, in time order."""
        return [event for event in self.events if event.event_type is event_type]

    def counts(self) -> Dict[TraceEventType, int]:
        """Number of events of each type."""
        result: Dict[TraceEventType, int] = {}
        for event in self.events:
            result[event.event_type] = result.get(event.event_type, 0) + 1
        return result

    def faults_by_type(self) -> Dict[FaultType, int]:
        """Number of fault occurrences, split by visible/latent."""
        result: Dict[FaultType, int] = {
            FaultType.VISIBLE: 0,
            FaultType.LATENT: 0,
        }
        for event in self.of_type(TraceEventType.FAULT_OCCURRED):
            if event.fault_type is not None:
                result[event.fault_type] += 1
        return result

    def detection_latencies(self) -> List[float]:
        """Observed occurrence-to-detection delays of latent faults.

        Matches fault and detection events per replica in order; this is
        the empirical counterpart of ``MDL`` and is what experiment E9
        aggregates.
        """
        pending: Dict[int, List[float]] = {}
        latencies: List[float] = []
        for event in self.events:
            if event.replica is None:
                continue
            if (
                event.event_type is TraceEventType.FAULT_OCCURRED
                and event.fault_type is FaultType.LATENT
            ):
                pending.setdefault(event.replica, []).append(event.time)
            elif event.event_type is TraceEventType.FAULT_DETECTED:
                queue = pending.get(event.replica)
                if queue:
                    latencies.append(event.time - queue.pop(0))
        return latencies

    def repair_durations(self) -> List[float]:
        """Observed repair-start-to-completion durations."""
        pending: Dict[int, List[float]] = {}
        durations: List[float] = []
        for event in self.events:
            if event.replica is None:
                continue
            if event.event_type is TraceEventType.REPAIR_STARTED:
                pending.setdefault(event.replica, []).append(event.time)
            elif event.event_type is TraceEventType.REPAIR_COMPLETED:
                queue = pending.get(event.replica)
                if queue:
                    durations.append(event.time - queue.pop(0))
        return durations
