#!/usr/bin/env python3
"""Compare two benchmark result sets, one row per (workload, metric).

A result set is the JSONL file ``run.py --record`` (or ``repeat.py``)
appends to: one record ``{experiment, host, workload, seed, trace,
correct, attempted, failed, metrics}`` per run.  Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Result sets measured on different hosts (cores, numba, numpy, python)
are refused.  For every metric both sets report, the row gives each
side's median and quartiles and a verdict, using the metric's ``bound``
and ``better`` from ``BENCHMARK.json``:

* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the bound, unless every new run beats, or loses to,
  every base run;
* ``worse`` -- the new median is worse by more than the bound;
* ``better`` -- the new median is better by more than the base spread;
* ``same`` -- otherwise.

Per-layer metrics have no bound: their rows carry ``info`` and the
relative change.  Exits 1 when any row is ``worse`` or either set has a
failed answer, 2 on unusable input, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent


def load(path: str) -> List[Dict[str, object]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: Sequence[float], new: Sequence[float], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, n_med = statistics.median(base), statistics.median(new)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if spread(base) > bound or spread(new) > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return "better"
        if all(sign * n > sign * b for n in new for b in base):
            return "worse"
        return "unresolved"
    if change > bound:
        return "worse"
    if -change > spread(base):
        return "better"
    return "same"


def compare(base: List[Dict[str, object]], new: List[Dict[str, object]],
            spec: Dict[str, object]) -> Tuple[List[List[str]], bool]:
    """Rows of the comparison and whether any row is worse."""
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows, regressed = [], False

    def series(records, workload, name):
        return [r["metrics"][name]["value"] for r in records
                if r["workload"] == workload and name in r["metrics"]]

    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for name, meta in metrics.items():
            a, b = series(base, workload, name), series(new, workload, name)
            if not a or not b:
                continue
            if "bound" in meta:
                mark = verdict(a, b, meta["better"], meta["bound"])
                regressed |= mark == "worse"
                bound = f"{meta['bound']:.2f}"
            else:
                mark, bound = "info", "-"
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            rows.append([workload, name, mark, f"{change:+.1%}", bound,
                         f"{qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}] n={len(a)}",
                         f"{qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] n={len(b)}"])
    return rows, regressed


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    if not base or not new:
        print("error: empty result set", file=sys.stderr)
        return 2
    hosts = {json.dumps(r["host"], sort_keys=True) for r in base + new}
    if len(hosts) != 1:
        print("error: result sets come from different hosts: "
              + "; ".join(sorted(hosts)), file=sys.stderr)
        return 2
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    rows, regressed = compare(base, new, spec)
    header = ["workload", "metric", "verdict", "change", "bound",
              "base median [q1, q3]", "new median [q1, q3]"]
    widths = [max(len(str(row[i])) for row in rows + [header])
              for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)))
    failed = sum(r["failed"] for r in base + new)
    if failed:
        print(f"{failed} failed answers across the two sets")
    return 1 if regressed or failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
