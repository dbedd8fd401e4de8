"""Spans around each layer's public entry points, recorded from outside.

The traced runs replace the module attributes through which one layer
calls the next (``repro.study.run``, the ``run_*`` estimator loops the
engine imports, the ``simulate_batch`` kernel the estimators import,
the fleet runner, ``FleetTally.merge``, the planner's screen and
refinement, the store and the service) with wrappers that time each
call.  Nothing inside ``src/`` changes; :func:`install` returns a
function that puts the originals back.

A span's *self* time is its duration minus the time of the spans it
directly encloses, tracked per thread (the serve engine runs on its own
thread).  Coroutines (``StudyService.submit``) are timed end to end
only: their awaits interleave, so they cannot own a per-thread stack.

Totals accumulate as counters ``bench.<span>.{calls,seconds,
self_seconds}`` in an :class:`repro.obs.Telemetry` registry.  In-process
workloads diff snapshots of a private registry; the traced server hands
in the service's own registry, so the numbers come back through
``/metrics``.  Every counter is created up front, so a scrape never
iterates a registry another thread is growing.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Callable, Dict, List

#: Every span the wrappers record.
SPANS = (
    "study",
    "estimators",
    "batch",
    "fleet.runner",
    "fleet.merge",
    "optimize.screen",
    "optimize.refine",
    "serve.group",
    "service.submit",
    "store.lookup",
    "store.put",
)

#: Extra counters: simulated trial-years, and the serve engine thread's
#: queueing (jobs, seconds waited before starting, seconds busy).
EXTRA_COUNTERS = (
    "bench.batch.trial_years",
    "bench.engine.jobs",
    "bench.engine.wait_seconds",
    "bench.engine.busy_seconds",
)


def counter_names() -> List[str]:
    names = [f"bench.{span}.{field}" for span in SPANS
             for field in ("calls", "seconds", "self_seconds")]
    return names + list(EXTRA_COUNTERS)


class Tracer:
    """Records spans into a telemetry registry's counters."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self._local = threading.local()
        for name in counter_names():
            telemetry.count(name, 0)

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, seconds: float, own: float) -> None:
        tel = self.telemetry
        tel.count(f"bench.{name}.calls")
        tel.count(f"bench.{name}.seconds", seconds)
        tel.count(f"bench.{name}.self_seconds", own)

    def span(self, name: str, fn: Callable,
             after: Callable = None) -> Callable:
        """Wrap a synchronous function; ``after(result)`` runs on success."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self._record(name, elapsed, elapsed - children)
            if after is not None:
                after(result)
            return result

        return wrapper

    def async_span(self, name: str, fn: Callable) -> Callable:
        """Wrap a coroutine function, timed end to end."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._record(name, elapsed, elapsed)

        return wrapper

    def count_trial_years(self, result) -> None:
        self.telemetry.count("bench.batch.trial_years",
                             result.total_observed_time / 8760.0)

    def trace_executor(self, executor) -> None:
        """Time how long each job waits for, and then holds, an executor."""
        submit = executor.submit
        tel = self.telemetry

        def traced_submit(fn, *args, **kwargs):
            enqueued = time.perf_counter()

            def job():
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tel.count("bench.engine.jobs")
                    tel.count("bench.engine.wait_seconds", start - enqueued)
                    tel.count("bench.engine.busy_seconds",
                              time.perf_counter() - start)

            return submit(job)

        executor.submit = traced_submit


def install(tracer: Tracer, serve: bool = False) -> Callable[[], None]:
    """Wrap the layer entry points; returns a function that unwraps them."""
    import repro.fleet.aggregate as aggregate
    import repro.optimize.runner as optimize_runner
    import repro.simulation.estimators as estimators
    import repro.simulation.variance_reduction as variance_reduction
    import repro.study as study
    import repro.study.engine as engine

    patches = [
        (study, "run", tracer.span("study", study.run)),
        (engine, "run_mttdl", tracer.span("estimators", engine.run_mttdl)),
        (engine, "run_loss_probability",
         tracer.span("estimators", engine.run_loss_probability)),
        (engine, "simulate_fleet",
         tracer.span("fleet.runner", engine.simulate_fleet)),
        (aggregate.FleetTally, "merge",
         tracer.span("fleet.merge", aggregate.FleetTally.merge)),
        (optimize_runner, "screen_candidates",
         tracer.span("optimize.screen", optimize_runner.screen_candidates)),
        (optimize_runner, "survivors_for_refinement",
         tracer.span("optimize.screen",
                     optimize_runner.survivors_for_refinement)),
        (optimize_runner, "refine_evaluations",
         tracer.span("optimize.refine", optimize_runner.refine_evaluations)),
    ]
    kernels = [estimators, variance_reduction]
    if serve:
        import repro.serve.batch as serve_batch
        import repro.serve.service as service
        import repro.serve.store as store

        kernels.append(serve_batch)
        patches += [
            (service, "run_group",
             tracer.span("serve.group", service.run_group)),
            (service.StudyService, "submit",
             tracer.async_span("service.submit", service.StudyService.submit)),
            (store.ResultStore, "lookup",
             tracer.span("store.lookup", store.ResultStore.lookup)),
            (store.ResultStore, "put",
             tracer.span("store.put", store.ResultStore.put)),
        ]
    for module in kernels:
        patches.append((module, "simulate_batch",
                        tracer.span("batch", module.simulate_batch,
                                    after=tracer.count_trial_years)))
    originals = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
    for owner, name, wrapper in patches:
        setattr(owner, name, wrapper)

    def uninstall() -> None:
        for owner, name, original in reversed(originals):
            setattr(owner, name, original)

    return uninstall


def counters_delta(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    return {name: after.get(name, 0.0) - before.get(name, 0.0)
            for name in set(before) | set(after)}
