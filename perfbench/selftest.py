#!/usr/bin/env python3
"""Small-scale self-tests of the benchmark itself.

Usage::

    python3 perfbench/selftest.py

* every workload runs at toy size, untraced and traced, and reports
  every metric with no failed answer;
* the answer checks reject corrupted answers of every kind;
* the comparator marks synthetic result sets better, worse, same and
  unresolved, and refuses sets from different hosts;
* ``BENCHMARK.json`` names exactly the workloads and metrics ``run.py``
  prints.

Exits 0 when every test passes.  Takes about a minute on 2 cores.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402

#: Toy sizes: fraction of each workload's inputs, and seconds per run.
TOY = {"estimate": 0.1, "fleet": 0.04, "planner": 0.5, "serve": 0.3}
TOY_SECONDS = 1.0


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def test_workloads_at_toy_size() -> None:
    for workload, scale in TOY.items():
        for trace in (False, True):
            outcome = run.run(workload, seed=7, seconds=TOY_SECONDS,
                              trace=trace, scale=scale)
            line = run.result_line(outcome, trace)
            expect(line["correct"] and line["failed"] == 0,
                   f"{workload}: failed answers {outcome['failures'][:3]}")
            expect(line["attempted"] >= 1, f"{workload}: nothing attempted")
            table = run.PER_LAYER if trace else run.END_TO_END
            expect(list(line["metrics"]) == [name for name, _ in table],
                   f"{workload}: metric set differs")
            for name, metric in line["metrics"].items():
                expect(math.isfinite(metric["value"]),
                       f"{workload}: {name} is not finite")
                if not trace:
                    expect(metric["value"] > 0, f"{workload}: {name} is 0")


def test_checks_reject_corrupted_answers() -> None:
    import repro.study as study
    from repro.study import Scenario

    import workloads

    reference = run.load_reference()
    payloads = workloads.estimate_questions(3, reference["points"])
    by_engine = {}
    for payload in payloads:
        by_engine.setdefault(
            (payload["policy"]["engine"],
             payload["policy"].get("variance_reduction", "none")), payload)
    for key, payload in sorted(by_engine.items()):
        result = study.run(Scenario.from_dict(payload)).as_dict()
        expect(checks.check_point(payload, result, reference["points"]) is None,
               f"{key}: a correct answer was rejected")
        bad = dict(result, value=result["value"] * 1.5)
        expect(checks.check_point(payload, bad, reference["points"])
               is not None, f"{key}: a corrupted value passed")
        expect(checks.check_same_answer(bad, result) is not None,
               f"{key}: a corrupted served answer passed")
        if payload["policy"]["target_relative_error"]:
            loose = dict(result, std_error=abs(result["value"]))
            expect(checks.check_point(payload, loose, reference["points"])
                   is not None, f"{key}: a missed target passed")

    fleet = workloads.fleet_questions(3, members=3000)[0]
    answer = study.run(fleet, jobs=1).as_dict()
    name = fleet.label
    expect(checks.check_fleet(name, answer, reference["fleets"]) is None,
           "a correct fleet answer was rejected")
    bad = copy.deepcopy(answer)
    curve = bad["details"]["survival_curve"]
    curve[-1] = curve[-2] + 0.01
    expect(checks.check_fleet(name, bad, reference["fleets"]) is not None,
           "an increasing survival curve passed")
    expect(checks.check_fleet(name, dict(answer, value=0.9),
                              reference["fleets"]) is not None,
           "a wrong loss fraction passed")

    payload = workloads.planner_questions(3)[0]
    answer = study.run(Scenario.from_dict(payload), jobs=1).as_dict()
    expect(checks.check_frontier(payload, answer) is None,
           "a correct frontier was rejected")
    bad = copy.deepcopy(answer)
    frontier = bad["details"]["frontier"]
    frontier.append(dict(frontier[0], annual_cost=frontier[-1]["annual_cost"]
                         + 1.0))
    expect(checks.check_frontier(payload, bad) is not None,
           "a dominated frontier row passed")
    bad = copy.deepcopy(answer)
    bad["details"]["recommended"] = bad["details"]["frontier"][0]
    if bad["details"]["recommended"] != answer["details"]["recommended"]:
        expect(checks.check_frontier(payload, bad) is not None,
               "a suboptimal recommendation passed")


def _synthetic(values, workload="estimate", host=None):
    return [{"experiment": "perfbench", "workload": workload, "seed": i,
             "trace": 0, "correct": True, "attempted": 1, "failed": 0,
             "host": host or {"cores": 2}, "metrics": {
                 "wall_s": {"value": v, "unit": "s"}}}
            for i, v in enumerate(values)]


def test_comparator() -> None:
    spec = {"workloads": [{"name": "estimate"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower",
                            "bound": 0.1}],
            "per_layer": []}
    rng = random.Random(1)
    base = [1.0 + rng.gauss(0, 0.005) for _ in range(10)]
    cases = {
        "worse": [v * 1.3 for v in base],
        "better": [v * 0.7 for v in base],
        "same": [v * 1.01 for v in base],
        "unresolved": [1.0 + rng.gauss(0, 0.3) for _ in range(10)],
    }
    for want, new in cases.items():
        rows, regressed = compare.compare(_synthetic(base), _synthetic(new),
                                          spec)
        expect(rows[0][2] == want, f"expected {want}, got {rows[0][2]}")
        expect(regressed == (want == "worse"), f"{want}: wrong regression flag")
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        paths = [Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"]
        for path, host in zip(paths, ({"cores": 2}, {"cores": 8})):
            path.write_text("".join(json.dumps(r) + "\n"
                                    for r in _synthetic(base, host=host)))
        expect(compare.main([str(p) for p in paths]) == 2,
               "result sets from different hosts were compared")
    try:
        run.WORK.rmdir()
    except OSError:
        pass


def test_benchmark_json_matches() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "workloads differ")
    expect([(m["name"], m["unit"]) for m in spec["end_to_end"]]
           == list(run.END_TO_END), "end-to-end metrics differ")
    expect([(m["name"], m["unit"]) for m in spec["per_layer"]]
           == list(run.PER_LAYER), "per-layer metrics differ")


def main() -> int:
    import warnings

    warnings.simplefilter("ignore")
    tests = [test_benchmark_json_matches, test_comparator,
             test_checks_reject_corrupted_answers, test_workloads_at_toy_size]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception:  # noqa: BLE001 -- report every failing test
            failed += 1
            print(f"FAIL {test.__name__}")
            traceback.print_exc()
        else:
            print(f"ok   {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
