#!/usr/bin/env python3
"""Regenerate ``reference.json``: high-effort answers the checks trust.

Every reference is a run of the simulator itself, so it carries the
simulated semantics (deterministic audit grid, deterministic repairs)
rather than the CTMC's exponential ones:

* loss probabilities at moderate points (p >= 0.005): plain batch Monte
  Carlo with enough trials for ~1% relative error;
* loss probabilities at rare points: importance sampling with 200x the
  trials a benchmark question starts from;
* MTTDLs: plain batch Monte Carlo with 50,000 trials (~0.5%), at the
  questions' censoring horizon;
* fleet plans: the mean and standard deviation of the loss fraction
  over 24 fleet seeds at the benchmark's fleet size.  Regional shocks
  couple a fleet's members, so the spread across seeds -- not the
  binomial error of one run -- is what an answer is checked against.

Usage::

    python3 perfbench/make_reference.py [--fresh]

Existing entries whose point is still on a grid are kept; only missing
ones are computed (``--fresh`` recomputes everything: about five
minutes on 2 cores).
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from repro import study  # noqa: E402
from repro.study import Scenario  # noqa: E402

SEED = 1_000_003
FLEET_RUNS = 24
MODERATE = 0.005


def _answer(payload):
    result = study.run(Scenario.from_dict(payload))
    return {"value": result.value, "std_error": result.std_error,
            "trials": result.trials, "method": result.method}


def point_reference(question, point):
    mdl, alpha, replicas, scheme = point
    system = workloads.system_payload(mdl, alpha, replicas, scheme)
    if question == "mttdl":
        return _answer(workloads.point_scenario(
            question, system, "batch", SEED, trials=50_000,
            max_time=workloads.MTTDL_MAX_TIME))
    pilot = _answer(workloads.point_scenario(
        question, system, "is", SEED, trials=20_000))
    if pilot["value"] >= MODERATE:
        trials = min(2_000_000, math.ceil(1e4 / pilot["value"]))
        return _answer(workloads.point_scenario(
            question, system, "batch", SEED, trials=trials))
    return _answer(workloads.point_scenario(
        question, system, "is", SEED, trials=200 * workloads.TRIALS))


def fleet_reference(name):
    values = []
    for run in range(FLEET_RUNS):
        scenario = Scenario(
            question="fleet_survival",
            timeline=workloads.fleet_timeline(name),
            members=workloads.FLEET_MEMBERS, label=name,
            policy=study.EstimatorPolicy(engine="fleet", seed=SEED + run))
        values.append(study.run(
            scenario, jobs=len(os.sched_getaffinity(0))).value)
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values),
            "runs": FLEET_RUNS, "members": workloads.FLEET_MEMBERS}


def main() -> None:
    warnings.simplefilter("ignore")
    path = HERE / "reference.json"
    old = {"points": {}, "fleets": {}}
    if path.exists() and "--fresh" not in sys.argv[1:]:
        old = json.loads(path.read_text(encoding="utf-8"))
    points = {}
    for question, grid in (("loss_probability", workloads.LOSS_POINTS),
                           ("mttdl", workloads.MTTDL_POINTS)):
        for point in grid:
            key = workloads.point_key(question, *point)
            if key in old["points"]:
                points[key] = old["points"][key]
                continue
            start = time.perf_counter()
            points[key] = point_reference(question, point)
            print(f"{key}: {points[key]} ({time.perf_counter() - start:.1f}s)",
                  flush=True)
    fleets = {}
    for plan in workloads.FLEET_PLANS:
        kept = old["fleets"].get(plan[0])
        if kept and kept["members"] == workloads.FLEET_MEMBERS:
            fleets[plan[0]] = kept
            continue
        fleets[plan[0]] = fleet_reference(plan[0])
        print(f"{plan[0]}: {fleets[plan[0]]}", flush=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"points": points, "fleets": fleets}, handle, indent=1,
                  sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
