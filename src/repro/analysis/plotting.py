"""Dependency-free ASCII charts for terminal-friendly figure output.

The paper's figures are regenerated as data series by the benchmarks;
these helpers render those series as ASCII line charts, bar charts, and
histograms so a figure-shaped result can be inspected straight from the
benchmark output without a plotting stack.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence


def _scale(value: float, low: float, high: float, cells: int) -> int:
    if high == low:
        return 0
    fraction = (value - low) / (high - low)
    return min(int(fraction * cells), cells - 1)


def ascii_line_chart(
    xs: Sequence[float],
    ys: Sequence[float],
    width: int = 60,
    height: int = 15,
    title: Optional[str] = None,
    log_y: bool = False,
) -> str:
    """Plot a single series as an ASCII scatter/line chart.

    Args:
        xs: x values (need not be evenly spaced).
        ys: y values, same length as ``xs``.
        width: chart width in characters.
        height: chart height in rows.
        title: optional title line.
        log_y: plot the y axis on a log10 scale (values must be > 0).

    Raises:
        ValueError: for mismatched/empty series or non-positive values
            with ``log_y``.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have the same length")
    if not xs:
        raise ValueError("series must not be empty")
    if width < 10 or height < 3:
        raise ValueError("chart must be at least 10x3")
    values = list(ys)
    if log_y:
        if any(value <= 0 for value in values):
            raise ValueError("log_y requires strictly positive y values")
        values = [math.log10(value) for value in values]

    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(values), max(values)
    grid = [[" " for _ in range(width)] for _ in range(height)]
    for x, y in zip(xs, values):
        column = _scale(x, x_low, x_high, width)
        row = height - 1 - _scale(y, y_low, y_high, height)
        grid[row][column] = "*"

    y_label_high = f"{(10 ** y_high if log_y else y_high):.3g}"
    y_label_low = f"{(10 ** y_low if log_y else y_low):.3g}"
    label_width = max(len(y_label_high), len(y_label_low))
    lines: List[str] = []
    if title:
        lines.append(title)
    for index, row in enumerate(grid):
        if index == 0:
            label = y_label_high.rjust(label_width)
        elif index == height - 1:
            label = y_label_low.rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(f"{' ' * label_width} +{'-' * width}")
    x_axis = f"{x_low:.3g}".ljust(width // 2) + f"{x_high:.3g}".rjust(width - width // 2)
    lines.append(f"{' ' * label_width}  {x_axis}")
    return "\n".join(lines)


def ascii_bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Horizontal bar chart with one row per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    if not labels:
        raise ValueError("series must not be empty")
    if any(value < 0 for value in values):
        raise ValueError("bar values must be non-negative")
    peak = max(values) or 1.0
    label_width = max(len(str(label)) for label in labels)
    lines: List[str] = []
    if title:
        lines.append(title)
    for label, value in zip(labels, values):
        bar = "#" * max(int(value / peak * width), 1 if value > 0 else 0)
        lines.append(f"{str(label).ljust(label_width)} | {bar} {value:.4g}")
    return "\n".join(lines)


def ascii_histogram(
    samples: Sequence[float],
    bins: int = 10,
    width: int = 50,
    title: Optional[str] = None,
) -> str:
    """Histogram of a sample set as a horizontal bar chart."""
    if not samples:
        raise ValueError("samples must not be empty")
    if bins < 1:
        raise ValueError("bins must be at least 1")
    low, high = min(samples), max(samples)
    if low == high:
        return ascii_bar_chart([f"{low:.3g}"], [float(len(samples))], width, title)
    counts = [0] * bins
    span = high - low
    for sample in samples:
        index = min(int((sample - low) / span * bins), bins - 1)
        counts[index] += 1
    labels = []
    for index in range(bins):
        left = low + span * index / bins
        right = low + span * (index + 1) / bins
        labels.append(f"[{left:.3g}, {right:.3g})")
    return ascii_bar_chart(labels, [float(count) for count in counts], width, title)
