#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, checked and timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 21 --trace 0

Workloads (inputs come from ``perfbench/workloads.py`` and ``--seed``):

* ``estimate`` -- one caller asks >= 100 point questions (``mttdl`` /
  ``loss_probability``) through ``repro.study.run``: exact engines and
  every Monte-Carlo engine at moderate and rare operating points, no
  cache, no pool.  The kernel and the estimator loops do the work.
* ``fleet`` -- one caller asks nine 20k-member x 50 y
  ``fleet_survival`` questions (three refresh plans with shocks and
  migrations, three seeds each), ``jobs`` = cores, default chunk size,
  no cache.
* ``planner`` -- one caller asks four ``frontier`` questions over a
  120-candidate design space at 2,000 trials, ``jobs`` = cores.
* ``serve`` -- an open loop drives ``python -m repro.cli serve`` over
  HTTP at a fixed offered rate: ~84% repeats of primed questions (store
  hits), 14% new exact questions, 1.5% new batchable Monte-Carlo
  questions, 0.5% identical pairs asked at once, and a few
  tighter-precision repeats that go stale.

Closed-loop workloads answer their question set repeatedly until
``--seconds`` have elapsed; each question's latency is its median over
those passes, each divided by the host-speed factor measured around it
(see ``HostProbe``).  ``serve`` times each request from when it was
due, divided by the host factor at that time (see ``HostProbe``).
``--trace 0`` prints the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes (for ``serve``: an untraced and
a traced server on the same schedule) and prints the per-layer metrics,
the tracing overhead among them.  Per-layer sums are reported per
answer (see README.md).

Every answer is checked (``checks.py``); a wrong answer counts as
failed.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--record FILE``
also appends the run, with its host, to a JSONL result set that
``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import asyncio
import glob
import importlib.util
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for server stores and logs, removed after every run.
WORK = ROOT / ".perfbench"

WORKLOADS = ("estimate", "fleet", "planner", "serve")

#: The latency limit behind ``slo_met_ratio``, per workload (seconds):
#: what a user asking that kind of question is taken to tolerate.
SLO_SECONDS = {"estimate": 0.1, "fleet": 2.0, "planner": 1.0,
               "serve": 0.010}

#: End-to-end metrics and units, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("answers_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("latency_p99_s", "s"),
    ("slo_met_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics and units, printed with ``--trace 1``.  Sums are
#: per answer; a layer a workload bypasses reads 0.
PER_LAYER = (
    ("batch.calls", "count"),
    ("batch.busy_s", "s"),
    ("batch.trial_years_per_s", "trial-yr/s"),
    ("estimators.self_s", "s"),
    ("estimators.escalations", "count"),
    ("estimators.trials_per_needed", "ratio"),
    ("study.self_s", "s"),
    ("fleet.chunk.count", "count"),
    ("fleet.chunk.busy_s", "s"),
    ("fleet.chunk.max_s", "s"),
    ("fleet.chunk.member_years_per_s", "member-yr/s"),
    ("fleet.runner.self_s", "s"),
    ("fleet.runner.idle_ratio", "ratio"),
    ("fleet.merge_s", "s"),
    ("optimize.screen_s", "s"),
    ("optimize.candidates", "count"),
    ("optimize.survivor_ratio", "ratio"),
    ("optimize.refine.count", "count"),
    ("optimize.refine.busy_s", "s"),
    ("optimize.refine.self_s", "s"),
    ("optimize.refine.idle_ratio", "ratio"),
    ("serve.http.self_s", "s"),
    ("serve.group.busy_s", "s"),
    ("serve.hit_latency_p99_s", "s"),
    ("serve.miss_latency_p50_s", "s"),
    ("store.lookup_s", "s"),
    ("store.hit_ratio", "ratio"),
    ("store.put_s", "s"),
    ("store.bytes_per_entry", "bytes"),
    ("service.engine_wait_s", "s"),
    ("service.engine_busy_ratio", "ratio"),
    ("service.batch_size_mean", "count"),
    ("service.engine_runs", "count"),
    ("service.singleflight_shared", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.uncovered_s", "s"),
    ("loadgen.lateness_p99_s", "s"),
)

#: A tiny exact question the set-up probe answers once.
_PROBE = {
    "question": "loss_probability",
    "system": {"model": {"MV": 1.4e6, "ML": 2.8e5, "MRV": 0.5, "MRL": 0.5,
                         "MDL": 100.0, "alpha": 1.0}},
    "policy": {"engine": "analytic"},
}
_SETUP_CODE = (
    "import json, repro.study as s; "
    f"s.run(s.Scenario.from_dict(json.loads({json.dumps(json.dumps(_PROBE))})))"
)
#: Set-ups timed per run.  One set-up on a shared 2-core host moves by
#: +-20% from one second to the next; the median of five moves less.
SETUP_REPEATS = 5


class Failure(Exception):
    """The benchmark cannot run (missing program, server did not start)."""


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def cores() -> int:
    return len(os.sched_getaffinity(0))


def host_info() -> Dict[str, object]:
    """The host a result set was measured on."""
    import numpy

    return {
        "cores": cores(),
        "numba": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Median time for a fresh process to import the program and answer
    one exact question (interpreter start to exit)."""
    durations = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _SETUP_CODE], env=child_env(),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


#: Closed loops run the host-speed probe before a question once this
#: many seconds have passed since the last probe.
PROBE_EVERY_S = 0.05
#: The probe's duration between questions on a 2-core x86-64 host
#: (Python 3.11, NumPy, no numba) in its fast periods: host factor 1.0,
#: so adjusted latencies read close to seconds on that host.
PROBE_REFERENCE_S = 0.0048
#: ``serve`` probes the host on a timer at this interval ...
SAMPLE_EVERY_S = 0.2
#: ... and takes a request's host factor from the fastest probe within
#: this many seconds of its due time.
SAMPLE_WINDOW_S = 0.6


class HostProbe:
    """The host-speed probe (``hostprobe.py``) in a process of its own.

    On a 2-core share of a machine whose other tenants take turns at its
    cores, every timing -- fresh imports included -- reads 1.3-1.8x
    slower for seconds to tens of seconds at a time.  A latency divided
    by its host factor -- the probe's time around it over
    ``PROBE_REFERENCE_S`` -- drops the tenants' load.  A change to the
    program moves the latencies and not the probe, so comparing two
    commits keeps its meaning.

    Closed loops call ``seconds()``, which times one probe while this
    process waits (measured on ``fleet`` over five seeds in a slow
    period: 16% spread unadjusted, 8.5% adjusted).  ``serve`` passes
    ``every``: the probe then runs on a timer while the open loop runs,
    and ``factor()`` reads the samples afterwards.
    """

    def __init__(self, every: Optional[float] = None) -> None:
        self.every = every
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "HostProbe":
        command = [sys.executable, str(HERE / "hostprobe.py")]
        if self.every is not None:
            command += ["--every", str(self.every)]
        self.process = subprocess.Popen(
            command, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        if self.process.stdout.readline().strip() != "ready":
            self.__exit__()
            raise Failure("the host-speed probe did not start")
        return self

    def seconds(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        return float(self.process.stdout.readline())

    def __exit__(self, *exc) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        # A run's samples are a few kB: they fit the pipe until here.
        self.samples = [(float(at), float(seconds)) for at, seconds in
                        (line.split() for line in self.process.stdout)]
        self.process.stdout.close()

    def factor(self, at: float) -> float:
        """The host factor around monotonic time ``at``, from the timer's
        samples: the fastest probe within ``SAMPLE_WINDOW_S``.  The server
        and the load generator keep the host busy part of the time, so
        one probe may wait on them; the fastest one near a request waited
        on neither and reads the host alone."""
        near = [seconds for when, seconds in self.samples
                if abs(when - at) <= SAMPLE_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - at))[1]]
        return min(near) / PROBE_REFERENCE_S


def host_factors(probes: Sequence[Tuple[int, float]],
                 answers: int) -> List[float]:
    """Each question's host factor: the mean of the probes taken just
    before and just after it, over ``PROBE_REFERENCE_S``.  ``probes``
    are ``(index of the question that follows, seconds)``, in order, the
    last one taken after the final question."""
    factors = []
    for i in range(answers):
        before = [s for index, s in probes if index <= i][-1]
        after = next(s for index, s in probes if index > i)
        factors.append((before + after) / (2.0 * PROBE_REFERENCE_S))
    return factors


def vm_hwm_kb(pid: object = "self") -> float:
    """Peak resident set size of a process, in kB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return 0.0


class PeakRss:
    """Peak RSS of this process plus its live children (pool workers).

    A thread samples the children's own high-water marks every
    ``interval`` seconds; the peak of their sum is added to this
    process's high-water mark.
    """

    def __init__(self, interval: float = 0.05, ignore=()) -> None:
        self.interval = interval
        self.children_peak_kb = 0.0
        #: Children that are not the system under test.
        self.ignore = set(ignore)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.interval):
            pids = []
            for path in glob.glob("/proc/self/task/*/children"):
                try:
                    with open(path, encoding="ascii") as handle:
                        pids += handle.read().split()
                except OSError:
                    continue
            total = sum(vm_hwm_kb(pid) for pid in pids
                        if int(pid) not in self.ignore)
            self.children_peak_kb = max(self.children_peak_kb, total)

    def __enter__(self) -> "PeakRss":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def mb(self) -> float:
        return (vm_hwm_kb() + self.children_peak_kb) / 1024.0


def load_reference() -> Dict[str, Dict[str, Dict[str, float]]]:
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def histogram(snapshot: Dict[str, object], name: str) -> Tuple[float, float, float]:
    """(count, total, max) of a telemetry histogram, zeros when absent."""
    entry = snapshot.get("histograms", {}).get(name)
    if not entry:
        return 0.0, 0.0, 0.0
    return entry["count"], entry["total"], entry["max"]


def trials_per_needed(results: Sequence[Dict[str, object]]) -> float:
    """Geometric mean, over Monte-Carlo loss answers, of the trials drawn
    over the plain binomial trials the achieved relative error needs
    (1 for plain sampling; below 1 when variance reduction pays)."""
    logs = []
    for result in results:
        p, se = result.get("value"), result.get("std_error")
        if (result.get("question") != "loss_probability"
                or result.get("engine") in ("analytic", "markov")
                or not p or not se or p >= 1.0):
            continue
        logs.append(math.log(result["trials"] * se * se / (p * (1.0 - p))))
    return math.exp(statistics.fmean(logs)) if logs else 0.0


# ---------------------------------------------------------------------------
# closed-loop workloads: estimate, fleet, planner
# ---------------------------------------------------------------------------


def closed_loop_inputs(workload: str, seed: int, reference, scale: float = 1.0):
    """``(scenarios, payloads, jobs)`` for a closed-loop workload."""
    from repro.study import Scenario

    import workloads

    if workload == "estimate":
        payloads = workloads.estimate_questions(seed, reference["points"])
        if scale < 1.0:
            payloads = payloads[: max(4, int(len(payloads) * scale))]
        return [Scenario.from_dict(p) for p in payloads], payloads, 1
    if workload == "fleet":
        members = max(2000, int(workloads.FLEET_MEMBERS * scale))
        scenarios = workloads.fleet_questions(
            seed, members=members,
            realizations=workloads.FLEET_REALIZATIONS if scale >= 1.0 else 1)
        return scenarios, [s.as_dict() for s in scenarios], cores()
    payloads = workloads.planner_questions(seed)
    if scale < 1.0:
        payloads = payloads[:2]
    return [Scenario.from_dict(p) for p in payloads], payloads, cores()


def check_answer(workload: str, payload, result, reference) -> Optional[str]:
    import checks

    try:
        if workload == "fleet":
            return checks.check_fleet(payload["label"], result,
                                      reference["fleets"])
        if workload == "planner":
            return checks.check_frontier(payload, result)
        return checks.check_point(payload, result, reference["points"])
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"


def _pass_layers(delta: Dict[str, float], program: Dict[str, object],
                 wall: float, answers: int, jobs: int,
                 results: Sequence[Dict[str, object]]) -> Dict[str, float]:
    """Per-layer numbers of one traced pass: sums per answer, ratios."""

    def span(name: str, field: str = "seconds") -> float:
        return delta.get(f"bench.{name}.{field}", 0.0)

    chunks, chunk_busy, chunk_max = histogram(program, "fleet.chunk_seconds")
    refines, refine_busy, _ = histogram(program, "optimize.refine_seconds")
    counters = program.get("counters", {})
    fleet_workers = min(jobs, chunks) or 1
    refine_workers = min(jobs, refines) or 1
    runner = span("fleet.runner")
    refine = span("optimize.refine")
    batch = span("batch")
    candidates = counters.get("optimize.candidates", 0.0)
    member_years = sum(
        r["details"]["summary"]["members"] * r["details"]["summary"]["years"]
        for r in results if r.get("question") == "fleet_survival")
    sums = {
        "batch.calls": span("batch", "calls"),
        "batch.busy_s": batch,
        "estimators.self_s": span("estimators", "self_seconds"),
        "estimators.escalations": counters.get("estimator.escalations", 0.0),
        "study.self_s": span("study", "self_seconds"),
        "fleet.chunk.count": chunks,
        "fleet.chunk.busy_s": chunk_busy,
        "fleet.runner.self_s": (
            runner - span("fleet.merge") - chunk_busy / fleet_workers
            if runner else 0.0),
        "fleet.merge_s": span("fleet.merge"),
        "optimize.screen_s": span("optimize.screen"),
        "optimize.candidates": candidates,
        "optimize.refine.count": refines,
        "optimize.refine.busy_s": refine_busy,
        "optimize.refine.self_s": (
            refine - refine_busy / refine_workers if refine else 0.0),
    }
    covered = sum(sums[name] for name in (
        "study.self_s", "estimators.self_s", "batch.busy_s",
        "fleet.runner.self_s", "fleet.merge_s", "optimize.screen_s",
        "optimize.refine.self_s"))
    covered += chunk_busy / fleet_workers + refine_busy / refine_workers
    sums["obs.uncovered_s"] = wall - covered
    layers = {name: value / answers for name, value in sums.items()}
    layers.update({
        "batch.trial_years_per_s": (
            delta.get("bench.batch.trial_years", 0.0) / batch if batch else 0.0),
        "estimators.trials_per_needed": trials_per_needed(results),
        "fleet.chunk.max_s": chunk_max,
        "fleet.chunk.member_years_per_s": (
            member_years / chunk_busy if chunk_busy else 0.0),
        "fleet.runner.idle_ratio": (
            1.0 - chunk_busy / (fleet_workers * runner) if runner else 0.0),
        "optimize.survivor_ratio": (
            counters.get("optimize.survivors", 0.0) / candidates
            if candidates else 0.0),
        "optimize.refine.idle_ratio": (
            1.0 - refine_busy / (refine_workers * refine) if refine else 0.0),
    })
    return layers


def run_closed_loop(workload: str, seed: int, seconds: float, trace: bool,
                    scale: float = 1.0) -> Dict[str, object]:
    import repro.study as study
    from repro import obs

    import tracing

    reference = load_reference()
    scenarios, payloads, jobs = closed_loop_inputs(workload, seed, reference,
                                                   scale)
    setup_s = measure_setup()
    # Lazy set-up (imports, first pool) finishes before timing.
    study.run(scenarios[0], jobs=jobs)

    tracer = tracing.Tracer(obs.Telemetry())
    answers = len(scenarios)
    passes = []  # (traced, wall, latencies, ok flags, layers, host factor)
    failures: List[str] = []
    with HostProbe() as probe, PeakRss(ignore={probe.process.pid}) as peak:
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(passes) % 2 == 1
            uninstall = tracing.install(tracer) if traced else None
            before = tracer.telemetry.snapshot().counters
            latencies, results = [], []
            probes = []  # (index of the question that follows, seconds)
            last_probe = -math.inf
            try:
                for index, scenario in enumerate(scenarios):
                    if time.perf_counter() - last_probe >= PROBE_EVERY_S:
                        probes.append((index, probe.seconds()))
                        last_probe = time.perf_counter()
                    began = time.perf_counter()
                    result = study.run(
                        scenario, jobs=jobs,
                        telemetry=obs.Telemetry() if traced else None)
                    latencies.append(time.perf_counter() - began)
                    results.append(result)
            finally:
                wall = sum(latencies)
                if uninstall is not None:
                    uninstall()
            probes.append((answers, probe.seconds()))
            dicts = [r.as_dict() for r in results]
            layers = None
            if traced:
                program = obs.TelemetrySnapshot()
                for result in results:
                    program = program.merge(obs.TelemetrySnapshot.from_dict(
                        result.details["telemetry"]))
                layers = _pass_layers(
                    tracing.counters_delta(before,
                                           tracer.telemetry.snapshot().counters),
                    program.as_dict(), wall, answers, jobs, dicts)
            ok = []
            for payload, result in zip(payloads, dicts):
                problem = check_answer(workload, payload, result, reference)
                ok.append(problem is None)
                if problem is not None:
                    failures.append(problem)
            passes.append((traced, wall, latencies, ok, layers,
                           host_factors(probes, answers)))
            need = 2 if trace else 1
            if time.perf_counter() >= deadline and len(passes) >= need:
                break

    plain = [p for p in passes if not p[0]]

    def adjusted_wall(one_pass) -> float:
        return sum(l / f for l, f in zip(one_pass[2], one_pass[5]))

    # Each question's latency is its median over the passes, each pass's
    # latencies divided by its host factor (see HostProbe).
    adjusted = [statistics.median(p[2][i] / p[5][i] for p in plain)
                for i in range(answers)]
    correct = [all(p[3][i] for p in passes) for i in range(answers)]
    limit = SLO_SECONDS[workload]
    e2e = {
        "setup_s": setup_s,
        "wall_s": sum(adjusted),
        "answers_per_s": answers / sum(adjusted),
        "latency_p50_s": quantile(adjusted, 0.50),
        "latency_p90_s": quantile(adjusted, 0.90),
        "latency_p99_s": quantile(adjusted, 0.99),
        "slo_met_ratio": sum(
            latency <= limit and good
            for latency, good in zip(adjusted, correct)) / answers,
        "peak_rss_mb": peak.mb,
    }
    layers = {}
    if trace:
        traced = [p for p in passes if p[0]]
        for name, _ in PER_LAYER:
            values = [p[4].get(name, 0.0) for p in traced]
            layers[name] = statistics.median(values)
        layers["obs.trace_overhead_ratio"] = (
            statistics.median(map(adjusted_wall, traced))
            / statistics.median(map(adjusted_wall, plain)) - 1.0)
    info = {"passes": len(passes), "questions": answers, "jobs": jobs,
            "host_factor": round(statistics.median(
                f for p in plain for f in p[5]), 4),
            "unadjusted_wall_s": round(sum(
                statistics.median(p[2][i] for p in plain)
                for i in range(answers)), 4)}
    return {"e2e": e2e, "layers": layers,
            "attempted": answers * len(passes), "failures": failures,
            "info": info}


# ---------------------------------------------------------------------------
# the serve workload
# ---------------------------------------------------------------------------


class Server:
    """A ``repro.cli serve`` (or traced launcher) subprocess."""

    def __init__(self, traced: bool, cache_dir: Path) -> None:
        if traced:
            command = [sys.executable, str(HERE / "serve_launcher.py"),
                       "--cache-dir", str(cache_dir)]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve",
                       "--cache-dir", str(cache_dir), "--port", "0"]
        self.process = subprocess.Popen(
            command, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self.port = 0
        self.log: List[str] = []
        ready = threading.Event()

        def drain() -> None:
            for line in self.process.stderr:
                self.log.append(line)
                if line.startswith("serving on http://") and not ready.is_set():
                    self.port = int(line.strip().rsplit(":", 1)[1])
                    ready.set()
            ready.set()

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not ready.wait(60) or not self.port:
            self.stop()
            raise Failure("server did not start: " + "".join(self.log[-5:]))

    def peak_rss_mb(self) -> float:
        return vm_hwm_kb(self.process.pid) / 1024.0

    def stop(self) -> None:
        if self.process.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background
            # inherits an ignored SIGINT, and so does the server.  Store
            # writes are atomic, so an abrupt exit loses nothing.
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=5)


def _start_and_prime(traced: bool, cache_dir: Path,
                     hot_bodies: Sequence[bytes]) -> Tuple[Server, float]:
    import loadgen

    start = time.perf_counter()
    server = Server(traced, cache_dir)
    try:
        replies = asyncio.run(loadgen.post_sequential(
            "127.0.0.1", server.port, hot_bodies))
    except BaseException:
        server.stop()
        raise
    if any(status != 200 for status, _ in replies):
        server.stop()
        raise Failure("priming the store failed")
    return server, time.perf_counter() - start


def _scrape(server: Server) -> Dict[str, float]:
    import loadgen

    status, body = asyncio.run(loadgen.get("127.0.0.1", server.port,
                                           "/metrics"))
    if status != 200:
        raise Failure("/metrics failed")
    return loadgen.parse_prometheus(body.decode("utf-8"))


def _prom(name: str) -> str:
    return "repro_" + name.replace(".", "_") + "_total"


def _serve_window(traced: bool, directory: Path, hot_bodies, schedule,
                  setups: int):
    """Start (``setups`` times), prime, run the schedule, scrape, stop."""
    import loadgen

    durations = []
    for attempt in range(setups):
        server, seconds = _start_and_prime(
            traced, directory / f"store-{attempt}", hot_bodies)
        durations.append(seconds)
        if attempt < setups - 1:
            server.stop()
    try:
        before = _scrape(server) if traced else {}
        with HostProbe(every=SAMPLE_EVERY_S) as sampler:
            records, lateness = asyncio.run(loadgen.run_schedule(
                "127.0.0.1", server.port, schedule, min(2, cores())))
        after = _scrape(server) if traced else {}
        peak = server.peak_rss_mb()
    finally:
        server.stop()
    store = directory / f"store-{setups - 1}"
    entries = [path.stat().st_size for path in store.glob("*.json")]
    return {
        "setup_s": statistics.median(durations),
        "records": records,
        "factors": [sampler.factor(r.due) for r in records],
        "lateness": lateness,
        "delta": {name: after.get(name, 0.0) - before.get(name, 0.0)
                  for name in after},
        "peak_rss_mb": peak,
        "bytes_per_entry": sum(entries) / len(entries) if entries else 0.0,
    }


def _serve_layers(window, answers: Sequence[Dict[str, object]]) -> Dict[str, float]:
    delta = window["delta"]
    records = window["records"]
    n = len(records)

    def counter(name: str) -> float:
        return delta.get(_prom(name), 0.0)

    def per_call(span: str) -> float:
        calls = counter(f"bench.{span}.calls")
        return counter(f"bench.{span}.seconds") / calls if calls else 0.0

    hits = [r.latency for r in records
            if r.answer and r.answer.get("served_from") == "store"]
    misses = [r.latency for r in records
              if r.answer and r.answer.get("served_from") == "engine"]
    lookups = counter("bench.store.lookup.calls")
    jobs = counter("bench.engine.jobs")
    batch = counter("bench.batch.seconds")
    window_seconds = (max(r.done for r in records)
                      - min(r.due for r in records))
    batch_count = delta.get("repro_serve_batch_size_count", 0.0)
    return {
        "batch.calls": counter("bench.batch.calls") / n,
        "batch.busy_s": batch / n,
        "batch.trial_years_per_s": (
            counter("bench.batch.trial_years") / batch if batch else 0.0),
        "estimators.self_s": counter("bench.estimators.self_seconds") / n,
        "estimators.escalations": counter("estimator.escalations") / n,
        "estimators.trials_per_needed": trials_per_needed(
            [a["result"] for a in answers if a.get("served_from") == "engine"]),
        "study.self_s": counter("bench.study.self_seconds") / n,
        "serve.http.self_s": (
            sum(r.round_trip for r in records)
            - counter("bench.service.submit.seconds")) / n,
        "serve.group.busy_s": counter("bench.serve.group.seconds") / n,
        "serve.hit_latency_p99_s": quantile(hits, 0.99),
        "serve.miss_latency_p50_s": quantile(misses, 0.50),
        "store.lookup_s": per_call("store.lookup"),
        "store.hit_ratio": (
            counter("cache.serve.hit") / lookups if lookups else 0.0),
        "store.put_s": per_call("store.put"),
        "store.bytes_per_entry": window["bytes_per_entry"],
        "service.engine_wait_s": (
            counter("bench.engine.wait_seconds") / jobs if jobs else 0.0),
        "service.engine_busy_ratio": (
            counter("bench.engine.busy_seconds") / window_seconds),
        "service.batch_size_mean": (
            delta.get("repro_serve_batch_size_sum", 0.0) / batch_count
            if batch_count else 0.0),
        "service.engine_runs": counter("serve.engine_runs") / n,
        "service.singleflight_shared": (
            counter("serve.singleflight.shared") / n),
        # What no layer accounts for: waiting for a free connection,
        # the batching window, event-loop scheduling.
        "obs.uncovered_s": (
            sum(r.latency for r in records)
            - (sum(r.round_trip for r in records)
               - counter("bench.service.submit.seconds"))
            - counter("bench.store.lookup.seconds")
            - counter("bench.engine.wait_seconds")
            - counter("bench.engine.busy_seconds")) / n,
        "loadgen.lateness_p99_s": quantile(window["lateness"], 0.99),
    }


def _verify_serve(records, schedule_payloads, hot_payloads, reference):
    """Check every served answer; returns (attempted, failures)."""
    import repro.study as study
    from repro.study import Scenario

    import checks

    by_hash = {}
    for payload in list(hot_payloads) + list(schedule_payloads):
        by_hash[Scenario.from_dict(payload).content_hash()] = payload
    expected_cache: Dict[str, Dict[str, object]] = {}
    failures = []
    origin = {"hit": {"store"}, "exact": {"engine"}, "mc": {"engine"},
              "stale": {"engine"},
              # Which of a simultaneous pair runs the engine, and whether
              # the other shares the flight or finds the stored answer,
              # is up to the race.
              "duplicate": {"engine", "inflight", "store"}}
    for record in records:
        if record.status != 200 or record.answer is None:
            failures.append(f"request {record.index}: status {record.status} "
                            f"{record.error}")
            continue
        answer = record.answer
        if answer["served_from"] not in origin[record.kind]:
            failures.append(f"request {record.index} ({record.kind}) served "
                            f"from {answer['served_from']}")
            continue
        result = answer["result"]
        producer = by_hash.get(result["scenario_hash"])
        if producer is None:
            failures.append(f"request {record.index}: unknown producer")
            continue
        if result["scenario_hash"] not in expected_cache:
            expected_cache[result["scenario_hash"]] = study.run(
                Scenario.from_dict(producer)).as_dict()
        problem = checks.check_same_answer(
            result, expected_cache[result["scenario_hash"]])
        if problem is None:
            problem = checks.check_point(producer, result,
                                         reference["points"])
        if problem is not None:
            failures.append(f"request {record.index}: {problem}")
    return len(records), failures


def run_serve(seed: int, seconds: float, trace: bool,
              scale: float = 1.0) -> Dict[str, object]:
    import workloads

    reference = load_reference()
    rate = workloads.SERVE_RATE * scale
    window_seconds = seconds / 2 if trace else seconds
    hot, schedule = workloads.serve_plan(seed, window_seconds,
                                         reference["points"], rate=rate)
    hot_bodies = [json.dumps(p).encode("utf-8") for p in hot]
    timed = [(due, kind, json.dumps(p).encode("utf-8"))
             for due, kind, p in schedule]
    payloads = [p for _, _, p in schedule]
    directory = WORK / f"serve-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    try:
        windows = [_serve_window(False, directory / "plain", hot_bodies,
                                 timed, SETUP_REPEATS)]
        if trace:
            windows.append(_serve_window(True, directory / "traced",
                                         hot_bodies, timed, 1))
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted, failures = 0, []
    for window in windows:
        count, problems = _verify_serve(window["records"], payloads, hot,
                                        reference)
        attempted += count
        failures += problems
    plain = windows[0]
    records = plain["records"]
    # Each request's latency from its due time over its host factor
    # (see HostProbe).
    latencies = [r.latency / f for r, f in zip(records, plain["factors"])]
    ok = [latency for r, latency in zip(records, latencies)
          if r.status == 200 and r.answer is not None]
    wall = max(r.done for r in records) - min(r.due for r in records)
    limit = SLO_SECONDS["serve"]
    e2e = {
        "setup_s": plain["setup_s"],
        "wall_s": wall,
        "answers_per_s": len(ok) / wall,
        "latency_p50_s": quantile(latencies, 0.50),
        "latency_p90_s": quantile(latencies, 0.90),
        "latency_p99_s": quantile(latencies, 0.99),
        "slo_met_ratio": max(0.0, sum(latency <= limit for latency in ok)
                             - len(failures)) / len(records),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    layers = {}
    if trace:
        traced = windows[1]
        answers = [r.answer for r in traced["records"] if r.answer]
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update(_serve_layers(traced, answers))
        layers["obs.trace_overhead_ratio"] = (
            quantile([r.latency / f for r, f in
                      zip(traced["records"], traced["factors"])], 0.5)
            / e2e["latency_p50_s"] - 1.0)
    kinds: Dict[str, List[float]] = {}
    for record in records:
        kinds.setdefault(record.kind, []).append(record.latency)
    info = {"requests": len(records), "offered_per_s": rate,
            "late_p99_s": quantile(plain["lateness"], 0.99),
            "host_factor": round(statistics.median(plain["factors"]), 4),
            "unadjusted_p50_p90_p99_s": [
                round(quantile([r.latency for r in records], q), 6)
                for q in (0.5, 0.9, 0.99)],
            "mix": {kind: [len(values), round(quantile(values, 0.5), 4),
                           round(quantile(values, 0.99), 4)]
                    for kind, values in sorted(kinds.items())}}
    return {"e2e": e2e, "layers": layers, "attempted": attempted,
            "failures": failures, "info": info}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0) -> Dict[str, object]:
    """Run one workload; returns the measured metrics and check tallies."""
    warnings.simplefilter("ignore")
    if workload == "serve":
        return run_serve(seed, seconds, trace, scale)
    return run_closed_loop(workload, seed, seconds, trace, scale)


def result_line(outcome: Dict[str, object], trace: bool) -> Dict[str, object]:
    table = PER_LAYER if trace else END_TO_END
    values = outcome["layers"] if trace else outcome["e2e"]
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": {name: {"value": float(values.get(name, 0.0)),
                           "unit": unit}
                    for name, unit in table},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append this run to a JSONL result set")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        outcome = run(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    line = result_line(outcome, bool(args.trace))
    for problem in outcome["failures"][:10]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"{json.dumps(outcome['info'], sort_keys=True)}")
    for name, metric in line["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(f"answers checked: {line['attempted']}, failed: {line['failed']}")
    if args.record:
        record = {"experiment": "perfbench", "host": host_info(),
                  "workload": args.workload, "seed": args.seed,
                  "trace": args.trace, **line}
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
