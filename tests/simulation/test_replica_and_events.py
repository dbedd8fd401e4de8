"""Tests for the replica state machine and the trace vocabulary."""

import pytest

from repro.core.faults import FaultType
from repro.simulation.events import Trace, TraceEventType
from repro.simulation.replica import Replica, ReplicaState


class TestReplicaStateMachine:
    def test_starts_healthy(self):
        replica = Replica(index=0)
        assert replica.state is ReplicaState.OK
        assert not replica.is_faulty

    def test_visible_fault_is_immediately_detected(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.VISIBLE, 10.0)
        assert replica.state is ReplicaState.VISIBLE_FAILED
        assert replica.detection_time == 10.0
        assert replica.visible_faults == 1

    def test_latent_fault_waits_for_detection(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.LATENT, 5.0)
        assert replica.state is ReplicaState.LATENT_UNDETECTED
        assert replica.detection_time is None

    def test_detect_transitions_latent_fault(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.LATENT, 5.0)
        assert replica.detect(20.0)
        assert replica.state is ReplicaState.LATENT_DETECTED
        assert replica.detection_time == 20.0

    def test_detect_noop_when_not_latent_undetected(self):
        replica = Replica(index=0)
        assert not replica.detect(1.0)
        replica.suffer_fault(FaultType.VISIBLE, 2.0)
        assert not replica.detect(3.0)

    def test_detect_before_fault_rejected(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.LATENT, 10.0)
        with pytest.raises(ValueError):
            replica.detect(5.0)

    def test_repair_restores_health_and_counts(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.VISIBLE, 10.0)
        replica.repair(12.0)
        assert replica.state is ReplicaState.OK
        assert replica.repairs_completed == 1
        assert replica.faulty_hours == pytest.approx(2.0)

    def test_repair_of_healthy_replica_rejected(self):
        with pytest.raises(ValueError):
            Replica(index=0).repair(1.0)

    def test_second_fault_on_faulty_replica_counts_but_keeps_state(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.VISIBLE, 1.0)
        replica.suffer_fault(FaultType.LATENT, 2.0)
        assert replica.state is ReplicaState.VISIBLE_FAILED
        assert replica.latent_faults == 1

    def test_visible_fault_supersedes_undetected_latent(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.LATENT, 1.0)
        replica.suffer_fault(FaultType.VISIBLE, 2.0)
        assert replica.state is ReplicaState.VISIBLE_FAILED
        assert replica.detection_time == 2.0

    def test_fault_time_recorded(self):
        replica = Replica(index=0)
        replica.suffer_fault(FaultType.LATENT, 10.0)
        assert replica.fault_time == 10.0
        assert Replica(index=1).fault_time is None

    def test_current_fault_type(self):
        replica = Replica(index=0)
        assert replica.current_fault_type is None
        replica.suffer_fault(FaultType.LATENT, 1.0)
        assert replica.current_fault_type is FaultType.LATENT

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Replica(index=0).suffer_fault(FaultType.VISIBLE, -1.0)


class TestTrace:
    def test_record_and_counts(self):
        trace = Trace()
        trace.record(1.0, TraceEventType.FAULT_OCCURRED, 0, FaultType.LATENT)
        trace.record(2.0, TraceEventType.AUDIT_PERFORMED)
        trace.record(2.0, TraceEventType.FAULT_DETECTED, 0, FaultType.LATENT)
        counts = trace.counts()
        assert counts[TraceEventType.FAULT_OCCURRED] == 1
        assert counts[TraceEventType.AUDIT_PERFORMED] == 1
        assert len(trace) == 3

    def test_disabled_trace_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(1.0, TraceEventType.FAULT_OCCURRED)
        assert len(trace) == 0

    def test_of_type_filters(self):
        trace = Trace()
        trace.record(1.0, TraceEventType.FAULT_OCCURRED, 0, FaultType.VISIBLE)
        trace.record(2.0, TraceEventType.REPAIR_COMPLETED, 0, FaultType.VISIBLE)
        assert len(trace.of_type(TraceEventType.FAULT_OCCURRED)) == 1

    def test_faults_by_type(self):
        trace = Trace()
        trace.record(1.0, TraceEventType.FAULT_OCCURRED, 0, FaultType.VISIBLE)
        trace.record(2.0, TraceEventType.FAULT_OCCURRED, 1, FaultType.LATENT)
        trace.record(3.0, TraceEventType.FAULT_OCCURRED, 0, FaultType.LATENT)
        by_type = trace.faults_by_type()
        assert by_type[FaultType.VISIBLE] == 1
        assert by_type[FaultType.LATENT] == 2

    def test_detection_latencies_matched_per_replica(self):
        trace = Trace()
        trace.record(10.0, TraceEventType.FAULT_OCCURRED, 0, FaultType.LATENT)
        trace.record(12.0, TraceEventType.FAULT_OCCURRED, 1, FaultType.LATENT)
        trace.record(30.0, TraceEventType.FAULT_DETECTED, 0, FaultType.LATENT)
        trace.record(50.0, TraceEventType.FAULT_DETECTED, 1, FaultType.LATENT)
        assert sorted(trace.detection_latencies()) == [20.0, 38.0]

    def test_repair_durations(self):
        trace = Trace()
        trace.record(5.0, TraceEventType.REPAIR_STARTED, 0, FaultType.VISIBLE)
        trace.record(7.5, TraceEventType.REPAIR_COMPLETED, 0, FaultType.VISIBLE)
        assert trace.repair_durations() == [2.5]

    def test_iteration_yields_events_in_order(self):
        trace = Trace()
        trace.record(1.0, TraceEventType.AUDIT_PERFORMED)
        trace.record(2.0, TraceEventType.AUDIT_PERFORMED)
        times = [event.time for event in trace]
        assert times == [1.0, 2.0]
