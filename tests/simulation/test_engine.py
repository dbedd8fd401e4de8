"""Tests for the discrete-event simulation engine."""

import pytest

from repro.simulation.engine import SimulationEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(5.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(10.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("first"))
        engine.schedule(1.0, lambda: fired.append("second"))
        engine.run()
        assert fired == ["first", "second"]

    def test_now_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(3.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.5]
        assert engine.now == 3.5

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimulationEngine().schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    def test_events_scheduled_from_callbacks(self):
        engine = SimulationEngine()
        fired = []

        def first():
            fired.append(("first", engine.now))
            engine.schedule(2.0, lambda: fired.append(("second", engine.now)))

        engine.schedule(1.0, first)
        engine.run()
        assert fired == [("first", 1.0), ("second", 3.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = SimulationEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_peek_next_time_skips_cancelled(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.schedule(5.0, lambda: None)
        handle.cancel()
        assert engine.peek_next_time() == 5.0

    def test_cancel_head_then_peek_compacts_queue(self):
        # Cancelling the head entry leaves a tombstone in the heap;
        # peek_next_time must pop it (not just skip it) so repeated
        # peeks don't rescan, and pending_events reflects the purge.
        engine = SimulationEngine()
        head = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        assert engine.pending_events == 2
        head.cancel()
        assert engine.peek_next_time() == 2.0
        assert engine.pending_events == 1

    def test_cancel_every_event_then_peek_returns_none(self):
        engine = SimulationEngine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(3)]
        for handle in handles:
            handle.cancel()
        assert engine.peek_next_time() is None
        assert engine.pending_events == 0

    def test_cancel_head_during_run_preserves_clock_order(self):
        # A callback cancelling the next queued event must not disturb
        # the clock of later events.
        engine = SimulationEngine()
        fired = []
        later = engine.schedule(2.0, lambda: fired.append(("b", engine.now)))
        engine.schedule(
            1.0, lambda: (fired.append(("a", engine.now)), later.cancel())
        )
        engine.schedule(3.0, lambda: fired.append(("c", engine.now)))
        engine.run()
        assert fired == [("a", 1.0), ("c", 3.0)]


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(100.0, lambda: fired.append(2))
        end = engine.run(until=10.0)
        assert fired == [1]
        assert end == 10.0
        assert engine.pending_events == 1

    def test_run_until_advances_clock_even_with_empty_queue(self):
        engine = SimulationEngine()
        end = engine.run(until=42.0)
        assert end == 42.0
        assert engine.now == 42.0

    def test_stop_halts_processing(self):
        engine = SimulationEngine()
        fired = []

        def first_event():
            fired.append(1)
            engine.stop()

        engine.schedule(1.0, first_event)
        engine.schedule(2.0, lambda: fired.append(2))
        engine.run()
        assert fired == [1]

    def test_max_events_limits_processing(self):
        engine = SimulationEngine()
        fired = []
        for i in range(10):
            engine.schedule(float(i + 1), lambda i=i: fired.append(i))
        engine.run(max_events=3)
        assert len(fired) == 3

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        engine.run()
        assert engine.events_processed == 5

    def test_stop_prevents_the_until_clock_advance(self):
        # run(until=...) normally advances the clock to `until`, but a
        # stop() (e.g. the data-loss event) must freeze the clock at the
        # stopping event so the loss time is reported, not the horizon.
        engine = SimulationEngine()
        engine.schedule(5.0, engine.stop)
        end = engine.run(until=100.0)
        assert end == 5.0
        assert engine.now == 5.0

    def test_run_after_stop_resumes_and_advances_to_until(self):
        engine = SimulationEngine()
        engine.schedule(5.0, engine.stop)
        engine.run(until=100.0)
        # A fresh run() clears the stopped flag; with nothing left in
        # the queue the clock advances to the new horizon.
        end = engine.run(until=100.0)
        assert end == 100.0

    def test_max_events_stops_short_of_until_advance(self):
        # Exhausting max_events with events still pending must not jump
        # the clock to `until` — simulated time stays at the last event.
        engine = SimulationEngine()
        for i in range(5):
            engine.schedule(float(i + 1), lambda: None)
        end = engine.run(until=50.0, max_events=2)
        assert end == 2.0
        assert engine.events_processed == 2
        assert engine.pending_events == 3

    def test_max_events_counts_only_non_cancelled_events(self):
        engine = SimulationEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        cancelled = engine.schedule(2.0, lambda: fired.append(2))
        engine.schedule(3.0, lambda: fired.append(3))
        engine.schedule(4.0, lambda: fired.append(4))
        cancelled.cancel()
        engine.run(max_events=2)
        assert fired == [1, 3]
        assert engine.events_processed == 2

    def test_max_events_accumulates_across_runs(self):
        # The budget is per-call: a second run() gets a fresh allowance
        # while events_processed keeps the lifetime total.
        engine = SimulationEngine()
        for i in range(6):
            engine.schedule(float(i + 1), lambda: None)
        engine.run(max_events=2)
        engine.run(max_events=3)
        assert engine.events_processed == 5
        assert engine.pending_events == 1

    def test_step_returns_false_on_empty_queue(self):
        assert SimulationEngine().step() is False
