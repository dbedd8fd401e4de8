"""Prometheus text-format exposition for telemetry snapshots.

Staged for the ROADMAP's serve layer: a long-running Scenario→Result
service scrapes its :class:`~repro.obs.telemetry.Telemetry` registry by
rendering a snapshot through :func:`to_prometheus`.  The output follows
the Prometheus text exposition format (version 0.0.4): ``# TYPE`` lines,
one sample per line, histograms as ``_count``/``_sum``/``_min``/``_max``
series (the registry keeps summaries, not buckets), and spans as
``_count``/``_seconds_total`` pairs.

Instrument names like ``cache.fleet.hits`` become metric names like
``repro_cache_fleet_hits`` — dots to underscores under a common prefix,
with any other non-alphanumeric characters collapsed the same way.
"""

from __future__ import annotations

import math
import re
from typing import List

from .telemetry import TelemetrySnapshot

__all__ = ["to_prometheus"]

_INVALID = re.compile(r"[^a-zA-Z0-9_]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """``cache.fleet.hits`` → ``repro_cache_fleet_hits``."""
    cleaned = _INVALID.sub("_", name.replace(".", "_"))
    full = f"{prefix}_{cleaned}" if prefix else cleaned
    if full and full[0].isdigit():
        full = "_" + full
    return full


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_prometheus(snapshot: TelemetrySnapshot, prefix: str = "repro") -> str:
    """Render a snapshot in Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        metric = metric_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(snapshot.counters[name])}")
    for name in sorted(snapshot.histograms):
        count, total, low, high = snapshot.histograms[name]
        metric = metric_name(name, prefix)
        lines.append(f"# TYPE {metric} summary")
        lines.append(f"{metric}_count {_format_value(count)}")
        lines.append(f"{metric}_sum {_format_value(total)}")
        lines.append(f"{metric}_min {_format_value(low)}")
        lines.append(f"{metric}_max {_format_value(high)}")
    for name in sorted(snapshot.spans):
        count, seconds = snapshot.spans[name]
        metric = metric_name(name, prefix) + "_span"
        lines.append(f"# TYPE {metric}_seconds_total counter")
        lines.append(f"{metric}_seconds_total {_format_value(seconds)}")
        lines.append(f"{metric}_count {_format_value(count)}")
    return "\n".join(lines) + ("\n" if lines else "")
