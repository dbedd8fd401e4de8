"""Event-driven model of an r-way replicated storage system.

Each replica suffers the paper's exponential visible and latent faults
at its :class:`~repro.core.parameters.FaultModel`'s ``MV`` and ``ML``.
A visible fault repairs in ``MRV``; a latent fault waits for the next
point of the global audit grid (interval ``2 × MDL`` unless overridden,
see :func:`~repro.simulation.scrubbing.audit_interval_for`) and then
repairs in ``MRL``.  An audit runs as an event only while a latent
fault waits for it; the grid points in between find nothing, so a run
counts them by arithmetic and a traced run writes their records.
While any replica is faulty the healthy replicas' fault rates are
divided by the correlation factor ``α``.  The data is
lost when the number of simultaneously faulty replicas reaches the
configured loss threshold — every replica for plain replication (for a
mirrored pair this is exactly the paper's double-fault event),
``n - k + 1`` fragments for an (n, k) erasure scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.core.redundancy import RedundancyScheme
from repro.simulation.engine import EventHandle, SimulationEngine
from repro.simulation.events import Trace, TraceEventType
from repro.simulation.replica import Replica
from repro.simulation.rng import RandomStreams
from repro.simulation.scrubbing import (
    audit_detection_time,
    audit_interval_for,
)


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of a simulated replicated storage system.

    Attributes:
        replicas: replication degree (>= 1); for an (n, k) erasure
            scheme this is the fragment count ``n``.
        model: the fault model: fault mean times, repair times and the
            correlation factor (its ``MDL`` enters only through
            ``audit_interval``).
        audit_interval: hours between audits on the grid ``I, 2I, ...``;
            ``None`` never audits, and 0 detects a latent fault on
            arrival.
        trace: whether to record a full event trace.
        loss_threshold: number of simultaneously faulty replicas that
            loses the data (``n - k + 1`` for an (n, k) scheme); ``None``
            means all replicas must be faulty (plain replication).
    """

    replicas: int
    model: FaultModel
    audit_interval: Optional[float]
    trace: bool = False
    loss_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.replicas < 1:
            raise ValueError("replicas must be at least 1")
        if self.audit_interval is not None and not self.audit_interval >= 0:
            raise ValueError("audit_interval must be non-negative")
        if self.loss_threshold is not None and not (
            1 <= self.loss_threshold <= self.replicas
        ):
            raise ValueError(
                "loss_threshold must be between 1 and the replica count"
            )

    @property
    def effective_loss_threshold(self) -> int:
        """Faulty count at which data is lost (replica count by default)."""
        return (
            self.loss_threshold
            if self.loss_threshold is not None
            else self.replicas
        )


@dataclass
class RunResult:
    """Outcome of one simulated run.

    Attributes:
        lost: whether the data was lost before the run ended.
        end_time: the simulated time at which the run ended (the loss
            time if ``lost``, otherwise the censoring horizon).
        first_fault_type: for a loss, the type of the earliest
            still-outstanding fault at the loss instant (the fault that
            opened the fatal window of vulnerability).
        final_fault_type: for a loss, the type of the fault that
            completed the double (or r-fold) fault.
        visible_faults: total visible faults injected across replicas.
        latent_faults: total latent faults injected across replicas.
        repairs: total completed repairs.
        audits: audit-grid points the run passed: those at or before
            the horizon for a censored run, those before the loss for a
            lost one.
        trace: the event trace, if tracing was enabled.
    """

    lost: bool
    end_time: float
    first_fault_type: Optional[FaultType] = None
    final_fault_type: Optional[FaultType] = None
    visible_faults: int = 0
    latent_faults: int = 0
    repairs: int = 0
    audits: int = 0
    trace: Optional[Trace] = None


class ReplicatedStorageSystem:
    """Simulate one replicated data unit until data loss or a horizon."""

    def __init__(self, config: SystemConfig, streams: RandomStreams) -> None:
        self._config = config
        self._streams = streams
        # Degraded delays are divided by 1/α, not multiplied by α: the two
        # differ in the last bit on about a third of the draws, and seeded
        # event answers are pinned to the division.
        self._acceleration = 1.0 / config.model.correlation_factor
        self._engine = SimulationEngine()
        self._trace = Trace(enabled=config.trace)
        self._replicas = [Replica(index=i) for i in range(config.replicas)]
        self._fault_handles: Dict[Tuple[int, FaultType], EventHandle] = {}
        self._repair_handles: Dict[int, EventHandle] = {}
        self._lost = False
        self._loss_types: Tuple[Optional[FaultType], Optional[FaultType]] = (
            None,
            None,
        )
        self._audit_pending = False
        # Grid points whose audit record is already in the trace.
        self._audits_traced = 0

    # -- public API --------------------------------------------------------

    @property
    def config(self) -> SystemConfig:
        return self._config

    @property
    def trace(self) -> Trace:
        return self._trace

    @property
    def replicas(self) -> List[Replica]:
        return self._replicas

    def run(self, max_time: float) -> RunResult:
        """Run until data loss or ``max_time`` hours, whichever is first."""
        if max_time <= 0:
            raise ValueError("max_time must be positive")
        self._reschedule_healthy_replicas()
        self._engine.run(until=max_time)
        end_time = self._engine.now if self._lost else max_time
        audits = self._grid_points(end_time, inclusive=not self._lost)
        if self._trace.enabled:
            self._trace_audits(audits)
        return RunResult(
            lost=self._lost,
            end_time=end_time,
            first_fault_type=self._loss_types[0],
            final_fault_type=self._loss_types[1],
            visible_faults=sum(r.visible_faults for r in self._replicas),
            latent_faults=sum(r.latent_faults for r in self._replicas),
            repairs=sum(r.repairs_completed for r in self._replicas),
            audits=audits,
            trace=self._trace if self._config.trace else None,
        )

    # -- fault scheduling ----------------------------------------------------

    def _faulty_count(self) -> int:
        return sum(1 for replica in self._replicas if replica.is_faulty)

    def _schedule_faults(self, index: int) -> None:
        """(Re)schedule the next visible and latent faults for a replica."""
        self._cancel_faults(index)
        degraded = self._faulty_count() > 0
        model = self._config.model
        for fault_type, mean, stream in (
            (FaultType.VISIBLE, model.mean_time_to_visible, f"visible-{index}"),
            (FaultType.LATENT, model.mean_time_to_latent, f"latent-{index}"),
        ):
            delay = self._streams.exponential(stream, mean)
            if degraded:
                delay = delay / self._acceleration
            handle = self._engine.schedule(
                delay, lambda i=index, ft=fault_type: self._on_fault(i, ft)
            )
            self._fault_handles[(index, fault_type)] = handle

    def _cancel_faults(self, index: int) -> None:
        for fault_type in (FaultType.VISIBLE, FaultType.LATENT):
            handle = self._fault_handles.pop((index, fault_type), None)
            if handle is not None:
                handle.cancel()

    def _reschedule_healthy_replicas(self) -> None:
        """(Re)draw the pending faults of every healthy replica."""
        for replica in self._replicas:
            if not replica.is_faulty:
                self._schedule_faults(replica.index)

    # -- event handlers ------------------------------------------------------

    def _on_fault(self, index: int, fault_type: FaultType) -> None:
        if self._lost:
            return
        now = self._engine.now
        previously_faulty = self._faulty_count()
        self._replicas[index].suffer_fault(fault_type, now)
        self._record(TraceEventType.FAULT_OCCURRED, index, fault_type)
        self._cancel_faults(index)
        interval = self._config.audit_interval
        if fault_type is FaultType.VISIBLE:
            self._start_repair(index, fault_type)
        elif interval == 0:
            self._detect(index)
        elif interval is not None and not self._audit_pending:
            # The latent fault waits for the next grid point, where one
            # audit detects every latent fault outstanding by then.
            self._audit_pending = True
            self._engine.schedule_at(
                float(audit_detection_time(now, interval)), self._on_audit
            )
        if previously_faulty + 1 >= self._config.effective_loss_threshold:
            self._declare_loss(fault_type)
            return
        if previously_faulty == 0:
            self._reschedule_healthy_replicas()

    def _declare_loss(self, final_fault_type: FaultType) -> None:
        self._lost = True
        # The fault that opened the fatal window is the oldest outstanding one.
        oldest: Optional[Replica] = None
        for replica in self._replicas:
            if replica.fault_time is None:
                continue
            if oldest is None or (
                oldest.fault_time is not None
                and replica.fault_time < oldest.fault_time
            ):
                oldest = replica
        first_type = oldest.current_fault_type if oldest is not None else None
        self._loss_types = (first_type, final_fault_type)
        self._record(TraceEventType.DATA_LOSS, detail="loss threshold reached")
        self._engine.stop()

    def _start_repair(self, index: int, fault_type: FaultType) -> None:
        model = self._config.model
        self._record(TraceEventType.REPAIR_STARTED, index, fault_type)
        duration = (
            model.mean_repair_visible
            if fault_type is FaultType.VISIBLE
            else model.mean_repair_latent
        )
        self._repair_handles[index] = self._engine.schedule(
            duration, lambda i=index, ft=fault_type: self._on_repair_complete(i, ft)
        )

    def _on_repair_complete(self, index: int, fault_type: FaultType) -> None:
        if self._lost:
            return
        now = self._engine.now
        previously_faulty = self._faulty_count()
        self._replicas[index].repair(now)
        self._repair_handles.pop(index, None)
        self._record(TraceEventType.REPAIR_COMPLETED, index, fault_type)
        self._schedule_faults(index)
        if previously_faulty == 1:
            self._reschedule_healthy_replicas()

    # -- audits ---------------------------------------------------------------

    def _on_audit(self) -> None:
        if self._lost:
            return
        self._audit_pending = False
        if self._trace.enabled:
            now = self._engine.now
            self._trace_audits(self._grid_points(now, inclusive=True))
        for replica in self._replicas:
            self._detect(replica.index)

    def _detect(self, index: int) -> None:
        """Detect an undetected latent fault now and start its repair."""
        now = self._engine.now
        if self._replicas[index].detect(now):
            self._record(TraceEventType.FAULT_DETECTED, index, FaultType.LATENT)
            self._start_repair(index, FaultType.LATENT)

    def _grid_points(self, until: float, inclusive: bool) -> int:
        """How many grid points ``k·I`` (k >= 1) lie before ``until``,
        or at it when ``inclusive``."""
        interval = self._config.audit_interval
        if not interval:
            return 0

        def passed(k: int) -> bool:
            time = k * interval
            return time <= until if inclusive else time < until

        count = math.floor(until / interval)
        # Settle the division's rounding against the products themselves.
        while count > 0 and not passed(count):
            count -= 1
        while passed(count + 1):
            count += 1
        return count

    def _trace_audits(self, through: int) -> None:
        """Trace the audit passes of grid points up to number ``through``."""
        while self._audits_traced < through:
            self._audits_traced += 1
            self._trace.record(
                self._audits_traced * self._config.audit_interval,
                TraceEventType.AUDIT_PERFORMED,
            )

    def _record(
        self,
        event_type: TraceEventType,
        index: Optional[int] = None,
        fault_type: Optional[FaultType] = None,
        detail: str = "",
    ) -> None:
        """Trace one event now, after the grid points passed before it."""
        if not self._trace.enabled:
            return
        now = self._engine.now
        self._trace_audits(self._grid_points(now, inclusive=False))
        self._trace.record(now, event_type, index, fault_type, detail)


def system_from_fault_model(
    model: FaultModel,
    replicas: int = 2,
    streams: Optional[RandomStreams] = None,
    audits_per_year: Optional[float] = None,
    trace: bool = False,
    scheme: Optional[RedundancyScheme] = None,
) -> ReplicatedStorageSystem:
    """Build a simulator for a :class:`FaultModel` parameter set.

    The audit interval is derived from the model's ``MDL`` (interval =
    2 × MDL, the inverse of the paper's "MDL is half the scrub period")
    unless ``audits_per_year`` overrides it; the batch backend shares
    the convention through
    :func:`~repro.simulation.scrubbing.audit_interval_for`.  Passing an
    (n, k) ``scheme`` stores ``n`` fragments with loss at ``n - k + 1``
    simultaneously faulty; ``replicas`` is ignored then.
    """
    loss_threshold = None
    if scheme is not None:
        replicas, loss_threshold = scheme.n, scheme.loss_threshold
    config = SystemConfig(
        replicas=replicas,
        model=model,
        audit_interval=audit_interval_for(model, audits_per_year),
        trace=trace,
        loss_threshold=loss_threshold,
    )
    return ReplicatedStorageSystem(
        config, streams if streams is not None else RandomStreams(seed=0)
    )
