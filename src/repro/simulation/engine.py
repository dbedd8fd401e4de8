"""A small discrete-event simulation engine.

The engine keeps a priority queue of scheduled callbacks keyed by
simulated time (hours).  Callbacks may schedule further events or cancel
previously scheduled ones.  The storage system model in
:mod:`repro.simulation.system` is built on top of it.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

Callback = Callable[[], None]


@dataclass
class EventHandle:
    """Handle to a scheduled event; lets the scheduler cancel it."""

    time: float
    sequence: int
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when its time comes."""
        self.cancelled = True


@dataclass(order=True)
class _QueueEntry:
    time: float
    sequence: int
    handle: EventHandle = field(compare=False)
    callback: Callback = field(compare=False)


class SimulationEngine:
    """Event queue with simulated-time bookkeeping.

    Example::

        engine = SimulationEngine()
        engine.schedule(5.0, lambda: print("five hours in"))
        engine.run(until=10.0)
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._stopped = False
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time in hours."""
        return self._now

    @property
    def events_processed(self) -> int:
        """How many events have fired so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled (possibly cancelled) events still queued."""
        return len(self._queue)

    def schedule(self, delay: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` hours from now.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay!r}")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to fire at absolute simulated ``time``.

        Raises:
            ValueError: if ``time`` is in the simulated past.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule in the past: {time!r} < now {self._now!r}"
            )
        sequence = next(self._sequence)
        handle = EventHandle(time=time, sequence=sequence)
        heapq.heappush(
            self._queue,
            _QueueEntry(time=time, sequence=sequence, handle=handle, callback=callback),
        )
        return handle

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def peek_next_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or None if none remain."""
        while self._queue and self._queue[0].handle.cancelled:
            heapq.heappop(self._queue)
        if not self._queue:
            return None
        return self._queue[0].time

    def step(self) -> bool:
        """Fire the next non-cancelled event.

        Returns:
            True if an event fired, False if the queue was empty.
        """
        while self._queue:
            entry = heapq.heappop(self._queue)
            if entry.handle.cancelled:
                continue
            self._now = entry.time
            self._events_processed += 1
            entry.callback()
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """Run until the queue empties, ``until`` is reached, or stopped.

        Args:
            until: stop once the next event would be after this time.  The
                clock is advanced to ``until`` when the run ends because of
                it.
            max_events: safety valve on the number of events processed in
                this call.

        Returns:
            The simulated time at which the run stopped.
        """
        self._stopped = False
        fired = 0
        while not self._stopped:
            if max_events is not None and fired >= max_events:
                break
            next_time = self.peek_next_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            self.step()
            fired += 1
        if until is not None and self._now < until and not self._stopped:
            remaining = self.peek_next_time()
            if remaining is None or remaining > until:
                self._now = until
        return self._now
