"""The zero-dependency telemetry registry behind ``repro.obs``.

A :class:`Telemetry` instance is a process-local registry of three
instrument kinds:

* **counters** — monotonically increasing totals (``count``): cache
  hits, trials simulated, events emitted;
* **histograms** — ``(count, total, min, max)`` summaries of repeated
  observations (``observe``): per-chunk worker wall times, batch-kernel
  call durations;
* **spans** — nestable wall-time sections (``span``): the
  setup/kernel/merge breakdown every :func:`repro.study.run` question
  reports, with nested sections joined into dotted paths
  (``kernel.refine``).

Telemetry is **off by default**: the module-level registry returned by
:func:`current` is the :data:`NULL` no-op instance, whose methods cost
one attribute check, so instrumented hot paths (the estimator loop, the
fleet/optimize runners, the batch kernel wrapper) pay nothing when
nobody is watching.  :func:`session` installs a live registry for the
duration of a ``with`` block; :func:`repro.study.run` does this when a
caller passes ``telemetry=``.

The worker-pool story mirrors the rest of the codebase's mergeable-tally
discipline: a registry freezes into a :class:`TelemetrySnapshot`, and
snapshots :meth:`~TelemetrySnapshot.merge` associatively and
commutatively (counters sum, histogram and span summaries fold
field-wise) — the same contract as
:meth:`repro.fleet.aggregate.FleetTally.merge`, property-tested the same
way.  Pool workers return each result with its wall time
(:func:`repro.parallel.map_timed`); the parent turns every time into a
one-span snapshot (:func:`worker_span_snapshot`) and
:meth:`~Telemetry.absorb`\\ s them in any order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "TelemetrySnapshot",
    "current",
    "session",
    "worker_span_snapshot",
]


def _merge_histogram(
    a: Tuple[float, float, float, float],
    b: Tuple[float, float, float, float],
) -> Tuple[float, float, float, float]:
    return (a[0] + b[0], a[1] + b[1], min(a[2], b[2]), max(a[3], b[3]))


@dataclass(frozen=True)
class TelemetrySnapshot:
    """An immutable, mergeable copy of a registry's instruments.

    Attributes:
        counters: name → running total.
        histograms: name → ``(count, total, min, max)``.
        spans: dotted path → ``(count, total_seconds)``.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Tuple[float, float, float, float]] = field(
        default_factory=dict
    )
    spans: Dict[str, Tuple[int, float]] = field(default_factory=dict)

    def merge(self, other: "TelemetrySnapshot") -> "TelemetrySnapshot":
        """Combine two snapshots over disjoint (or repeated) work.

        Counters and span/histogram totals are plain sums and extremes
        fold by min/max, so ``a.merge(b).merge(c)`` equals
        ``a.merge(b.merge(c))`` under any permutation — the property the
        runners' any-order parallel reduction relies on, mirroring
        :meth:`repro.fleet.aggregate.FleetTally.merge`.
        """
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0.0) + value
        histograms = dict(self.histograms)
        for name, summary in other.histograms.items():
            if name in histograms:
                histograms[name] = _merge_histogram(histograms[name], summary)
            else:
                histograms[name] = summary
        spans = dict(self.spans)
        for path, (count, seconds) in other.spans.items():
            have = spans.get(path)
            if have is None:
                spans[path] = (count, seconds)
            else:
                spans[path] = (have[0] + count, have[1] + seconds)
        return TelemetrySnapshot(
            counters=counters,
            histograms=histograms,
            spans=spans,
        )

    @property
    def empty(self) -> bool:
        return not (self.counters or self.histograms or self.spans)

    # -- serialisation -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "histograms": {
                name: {
                    "count": summary[0],
                    "total": summary[1],
                    "min": summary[2],
                    "max": summary[3],
                }
                for name, summary in self.histograms.items()
            },
            "spans": {
                path: {"count": count, "total_seconds": seconds}
                for path, (count, seconds) in self.spans.items()
            },
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "TelemetrySnapshot":
        return TelemetrySnapshot(
            counters={
                str(k): float(v)
                for k, v in dict(payload.get("counters", {})).items()
            },
            histograms={
                str(k): (
                    float(v["count"]),
                    float(v["total"]),
                    float(v["min"]),
                    float(v["max"]),
                )
                for k, v in dict(payload.get("histograms", {})).items()
            },
            spans={
                str(k): (int(v["count"]), float(v["total_seconds"]))
                for k, v in dict(payload.get("spans", {})).items()
            },
        )


def worker_span_snapshot(path: str, seconds: float) -> TelemetrySnapshot:
    """A snapshot holding one completed span.

    The runners build one per pool task from the wall time the worker
    returned, so worker time reaches the parent registry through the
    same :meth:`Telemetry.absorb` merge path as any other snapshot.
    """
    return TelemetrySnapshot(spans={path: (1, float(seconds))})


class Telemetry:
    """A live, process-local registry of counters, histograms and
    nestable spans, optionally streaming events to a trace sink.

    Args:
        trace: an optional :class:`repro.obs.trace.TraceWriter`;
            :meth:`event` appends each event as one JSONL record.
    """

    #: Instrument calls on a live registry do real work; the
    #: :class:`NullTelemetry` subclass flips this to ``False`` so hot
    #: paths can skip argument construction entirely.
    enabled = True

    def __init__(self, trace: Optional[object] = None) -> None:
        self.trace = trace
        self.counters: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        self.spans: Dict[str, List[float]] = {}
        self._span_stack: List[str] = []

    # -- instruments -------------------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        """Increment the counter ``name`` by ``n``."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def observe(self, name: str, value: float) -> None:
        """Fold one observation into the histogram ``name``."""
        value = float(value)
        summary = self.histograms.get(name)
        if summary is None:
            self.histograms[name] = [1.0, value, value, value]
        else:
            summary[0] += 1.0
            summary[1] += value
            summary[2] = min(summary[2], value)
            summary[3] = max(summary[3], value)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a section; nested spans join into dotted paths."""
        self._span_stack.append(name)
        path = ".".join(self._span_stack)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._span_stack.pop()
            record = self.spans.get(path)
            if record is None:
                self.spans[path] = [1, elapsed]
            else:
                record[0] += 1
                record[1] += elapsed

    def event(
        self,
        kind: str,
        data: Optional[Dict[str, object]] = None,
        timing: Optional[Dict[str, object]] = None,
    ) -> None:
        """Count an event and append it to the trace sink, if any.

        ``data`` must be deterministic given the scenario seed (the
        testability contract of the flight recorder); wall times and
        other nondeterministic measurements belong in ``timing``.
        """
        self.count(f"events.{kind}")
        if self.trace is not None:
            self.trace.emit(kind, data=data, timing=timing)

    # -- aggregation -------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Freeze the registry's current state."""
        return TelemetrySnapshot(
            counters=dict(self.counters),
            histograms={
                name: tuple(summary)
                for name, summary in self.histograms.items()
            },
            spans={
                path: (int(record[0]), record[1])
                for path, record in self.spans.items()
            },
        )

    def absorb(self, snapshot: TelemetrySnapshot) -> None:
        """Fold a (worker) snapshot into the live registry."""
        for name, value in snapshot.counters.items():
            self.count(name, value)
        for name, summary in snapshot.histograms.items():
            have = self.histograms.get(name)
            if have is None:
                self.histograms[name] = list(summary)
            else:
                merged = _merge_histogram(tuple(have), summary)
                self.histograms[name] = list(merged)
        for path, (count, seconds) in snapshot.spans.items():
            record = self.spans.get(path)
            if record is None:
                self.spans[path] = [count, seconds]
            else:
                record[0] += count
                record[1] += seconds


#: One shared, stateless context manager — ``NullTelemetry.span`` hands
#: it out without allocating.
_NULL_SPAN = nullcontext()


class NullTelemetry(Telemetry):
    """The default registry: every instrument is a no-op.

    Instrumented code runs against this instance unless a session is
    active, so the disabled path costs one truthiness/attribute check
    per call site — the "near-zero overhead" contract.
    """

    enabled = False

    def count(self, name: str, n: float = 1) -> None:  # noqa: D102
        pass

    def observe(self, name: str, value: float) -> None:  # noqa: D102
        pass

    def span(self, name: str):  # noqa: D102
        return _NULL_SPAN

    def event(self, kind, data=None, timing=None):  # noqa: D102
        pass

    def absorb(self, snapshot: TelemetrySnapshot) -> None:  # noqa: D102
        pass


#: The module-wide no-op registry.
NULL = NullTelemetry()

_CURRENT: Telemetry = NULL


def current() -> Telemetry:
    """The registry instrumented code should report to right now.

    Returns :data:`NULL` unless a :func:`session` is active.
    """
    return _CURRENT


@contextmanager
def session(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Install ``telemetry`` as the current registry for a ``with`` block.

    Sessions nest: the previous registry (usually :data:`NULL`) is
    restored on exit, even on error.
    """
    global _CURRENT
    previous = _CURRENT
    _CURRENT = telemetry
    try:
        yield telemetry
    finally:
        _CURRENT = previous
