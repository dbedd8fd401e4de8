#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage::

    python3 perfbench/repeat.py --runs 10 --seconds 20 --out set.jsonl \\
        [--workloads estimate fleet] [--trace 0] [--first-seed 1]

Each run is a separate ``run.py`` process (as the benchmark is meant to
be run) with its own seed, recorded into the ``--out`` result set.  The
summary prints, per (workload, metric), the median and the spread: the
interquartile range over the median, as ``statistics.quantiles(n=4)``
gives it, next to the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from compare import load, quartiles, spread  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", nargs="+", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    for workload in names:
        for run in range(args.runs):
            seed = args.first_seed + run
            completed = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", f"{args.seconds:g}",
                 "--trace", str(args.trace), "--record", args.out],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True)
            last = completed.stdout.strip().splitlines()[-1:]
            print(f"{workload} seed={seed} exit={completed.returncode} "
                  f"{last[0] if last else ''}", flush=True)
    records = [r for r in load(args.out) if r["trace"] == args.trace]
    bounds = {m["name"]: m.get("bound")
              for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in names:
        runs = [r for r in records if r["workload"] == workload]
        if not runs:
            continue
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = quartiles(values)
            bound = bounds.get(name)
            print(f"{workload:9s} {name:32s} median {median:12.6g} "
                  f"spread {spread(values):7.2%} "
                  f"bound {'-' if bound is None else f'{bound:.0%}'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
