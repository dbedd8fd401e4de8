"""The asyncio Scenario→StudyResult service behind every serve front end.

:class:`StudyService` is the transport-agnostic core the HTTP server,
the stdio JSON-lines mode and the in-process tests all drive.  One
``await service.submit(scenario)`` resolves through three layers, each
cheaper than the next:

1. **store** — the persistent :class:`~repro.serve.store.ResultStore`
   answers exact questions forever and stochastic questions while their
   achieved relative error satisfies the caller's demand;
2. **single-flight** — identical in-flight scenarios (same content
   hash) share one computation: late arrivals await the first
   submission's future instead of spawning their own engine run;
3. **engine** — a real :func:`repro.study.run`, either solo or — for
   compatible plain-batch loss-probability scenarios — grouped by the
   batching queue onto one vectorized kernel invocation
   (:mod:`repro.serve.batch`).

Engine runs execute on a single worker thread
(``ThreadPoolExecutor(max_workers=1)``): the :func:`repro.obs.session`
registry is a module-level global, so concurrent engine runs in one
process would cross their telemetry streams.  Cache hits never touch
the worker, which is what keeps the hot path's throughput independent
of engine latency; engines still parallelise internally via ``jobs``.

Every outcome is counted into the service's own
:class:`~repro.obs.telemetry.Telemetry` registry (``serve.requests``,
``serve.engine_runs``, ``serve.singleflight.shared``,
``cache.serve.{hit,miss,stale,error,store,write_error}``,
``serve.batch.*``), which is exactly what ``/metrics`` renders through
the Prometheus exposition.  The store counts its own outcomes into that
registry, never into :func:`repro.obs.current`, which on the event-loop
thread may be an engine run's session.
"""

from __future__ import annotations

import asyncio
import warnings as _warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs, study
from repro.serve.batch import batchable, group_key, run_group
from repro.serve.store import ResultStore
from repro.study.result import StudyResult
from repro.study.scenario import Scenario

__all__ = ["ProgressCallback", "ServeAnswer", "StudyService"]

#: A progress consumer: called in the event loop with one flight-recorder
#: record ``{"event", "data", "timing"}`` per engine event.
ProgressCallback = Callable[[Dict[str, object]], None]


@dataclass(frozen=True)
class ServeAnswer:
    """One served answer plus how it was produced.

    Attributes:
        result: the (schema-versioned) study result.
        served_from: ``"store"`` (persistent cache hit), ``"inflight"``
            (shared an identical in-flight computation) or ``"engine"``
            (this request triggered the run — solo or batched).
        scenario_hash: the *requesting* scenario's content hash.  May
            differ from ``result.scenario_hash`` on store hits: the
            stored provenance names the scenario that produced the
            numbers, which can have different precision knobs.
    """

    result: StudyResult
    served_from: str
    scenario_hash: str


class _ProgressSink:
    """A trace-sink adapter marshalling engine events into the loop.

    Quacks like :class:`repro.obs.trace.TraceWriter` (the ``emit``
    method is all :meth:`Telemetry.event` calls), but instead of
    appending JSONL it hands each record to the subscriber's callback on
    the event-loop thread — engine events originate on the worker
    thread, and asyncio consumers must not be called from there.
    """

    def __init__(
        self, loop: asyncio.AbstractEventLoop, callback: ProgressCallback
    ) -> None:
        self._loop = loop
        self._callback = callback

    def emit(
        self,
        kind: str,
        data: Optional[Dict[str, object]] = None,
        timing: Optional[Dict[str, object]] = None,
    ) -> None:
        record = {"event": kind, "data": data, "timing": timing}
        self._loop.call_soon_threadsafe(self._deliver, record)

    def _deliver(self, record: Dict[str, object]) -> None:
        try:
            self._callback(record)
        except Exception:
            # A broken subscriber (e.g. a disconnected streaming client)
            # must not poison the engine run other callers share.
            pass


@dataclass
class _PendingGroup:
    """One batching-queue compatibility class awaiting its flush."""

    items: List[Tuple[Scenario, "asyncio.Future[StudyResult]"]] = field(
        default_factory=list
    )
    timer: Optional["asyncio.Task[None]"] = None


def _strip_telemetry(result: StudyResult) -> StudyResult:
    """Drop the engine-run telemetry payload before caching/serving.

    The snapshot is the *service's* operational data (it is absorbed
    into the registry ``/metrics`` renders); leaving it in the result
    would bloat every stored entry and leak per-run wall times into
    otherwise deterministic payloads.
    """
    if "telemetry" not in result.details:
        return result
    details = {k: v for k, v in result.details.items() if k != "telemetry"}
    return replace(result, details=details)


class StudyService:
    """The shared query service: store, single-flight, batching, engine.

    Args:
        store: the persistent result store; ``None`` disables the
            store layer (single-flight and batching still apply).
        jobs: worker processes for engines that parallelise internally
            (frontier refinement, fleet chunks).
        batch_window: seconds the batching queue holds the first
            scenario of a compatibility group open for companions
            before flushing; ``0`` still coalesces submissions arriving
            in the same loop iteration.  ``None`` disables batching.
        max_batch: flush a group immediately at this size.
        telemetry: the service's operational registry (defaults to a
            fresh live one); rendered by ``/metrics``.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        jobs: int = 1,
        batch_window: Optional[float] = 0.002,
        max_batch: int = 64,
        telemetry: Optional[obs.Telemetry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if batch_window is not None and batch_window < 0:
            raise ValueError("batch_window must be non-negative")
        self.store = store
        self.jobs = jobs
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.telemetry = telemetry if telemetry is not None else obs.Telemetry()
        if store is not None:
            store.entries.telemetry = self.telemetry
        # One worker thread by design: obs.session installs a
        # process-global registry, so engine runs must not overlap.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._inflight: Dict[str, "asyncio.Future[StudyResult]"] = {}
        self._pending: Dict[str, _PendingGroup] = {}
        self._closed = False

    # -- the one entry point ----------------------------------------------

    async def submit(
        self,
        scenario: Scenario,
        progress: Optional[ProgressCallback] = None,
    ) -> ServeAnswer:
        """Answer one scenario through store → single-flight → engine.

        Args:
            scenario: the declarative question.
            progress: optional subscriber for the engine's
                flight-recorder event stream (``study_start``,
                ``pilot_round``, ``chunk``, ``study_end``, ...), called
                on the event loop.  Subscribed runs bypass the batching
                queue — a shared kernel invocation has no per-caller
                event stream to narrate.
        """
        if self._closed:
            raise RuntimeError("the service is closed")
        tel = self.telemetry
        tel.count("serve.requests")
        key = scenario.content_hash()

        if self.store is not None:
            stored, outcome = self.store.lookup(scenario)
            if outcome == "hit":
                assert stored is not None
                return ServeAnswer(stored, "store", key)

        shared = self._inflight.get(key)
        if shared is not None:
            tel.count("serve.singleflight.shared")
            # shield: a caller abandoning its request must not cancel
            # the computation every other sharer is waiting on.
            result = await asyncio.shield(shared)
            return ServeAnswer(result, "inflight", key)

        loop = asyncio.get_running_loop()
        fut: "asyncio.Future[StudyResult]" = loop.create_future()
        self._inflight[key] = fut
        fut.add_done_callback(
            lambda _f, key=key: self._inflight.pop(key, None)
        )
        if (
            progress is None
            and self.batch_window is not None
            and batchable(scenario)
        ):
            self._enqueue(loop, scenario, fut)
        else:
            self._spawn_single(loop, scenario, fut, progress)
        result = await asyncio.shield(fut)
        return ServeAnswer(result, "engine", key)

    # -- solo engine runs --------------------------------------------------

    def _spawn_single(
        self,
        loop: asyncio.AbstractEventLoop,
        scenario: Scenario,
        fut: "asyncio.Future[StudyResult]",
        progress: Optional[ProgressCallback],
    ) -> None:
        sink = None if progress is None else _ProgressSink(loop, progress)
        # Fleet and frontier questions keep their chunk tallies and
        # refinements in the store's directory, in their own scopes.
        cache_dir = None if self.store is None else str(self.store.directory)

        def work() -> Tuple[StudyResult, obs.TelemetrySnapshot]:
            run_tel = obs.Telemetry(trace=sink)
            # Warnings are already captured into result.warnings by the
            # facade; re-emitting them from a server thread would only
            # spam stderr once per request.
            with _warnings.catch_warnings():
                _warnings.simplefilter("ignore")
                result = study.run(
                    scenario,
                    jobs=self.jobs,
                    cache_dir=cache_dir,
                    telemetry=run_tel,
                )
            return result, run_tel.snapshot()

        task = loop.run_in_executor(self._executor, work)
        task.add_done_callback(partial(self._finish_single, scenario, fut))

    def _finish_single(
        self,
        scenario: Scenario,
        fut: "asyncio.Future[StudyResult]",
        task: "asyncio.Future[Tuple[StudyResult, obs.TelemetrySnapshot]]",
    ) -> None:
        self.telemetry.count("serve.engine_runs")
        try:
            result, snapshot = task.result()
        except Exception as exc:
            if not fut.done():
                fut.set_exception(exc)
            return
        self.telemetry.absorb(snapshot)
        result = _strip_telemetry(result)
        if self.store is not None:
            self.store.put(scenario, result, batched=False)
        if not fut.done():
            fut.set_result(result)

    # -- the batching queue ------------------------------------------------

    def _enqueue(
        self,
        loop: asyncio.AbstractEventLoop,
        scenario: Scenario,
        fut: "asyncio.Future[StudyResult]",
    ) -> None:
        gkey = group_key(scenario)
        group = self._pending.get(gkey)
        if group is None:
            group = _PendingGroup()
            self._pending[gkey] = group
            group.timer = loop.create_task(self._flush_after_window(gkey))
        group.items.append((scenario, fut))
        if len(group.items) >= self.max_batch:
            self._flush(gkey)

    async def _flush_after_window(self, gkey: str) -> None:
        await asyncio.sleep(self.batch_window or 0.0)
        self._flush(gkey)

    def _flush(self, gkey: str) -> None:
        group = self._pending.pop(gkey, None)
        if group is None:
            return
        timer = group.timer
        try:
            current = asyncio.current_task()
        except RuntimeError:
            current = None
        if timer is not None and timer is not current and not timer.done():
            timer.cancel()
        scenarios = [scenario for scenario, _ in group.items]
        futs = [fut for _, fut in group.items]

        def work() -> Tuple[List[StudyResult], obs.TelemetrySnapshot]:
            run_tel = obs.Telemetry()
            with obs.session(run_tel):
                results = run_group(scenarios)
            return results, run_tel.snapshot()

        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(self._executor, work)
        task.add_done_callback(partial(self._finish_group, scenarios, futs))

    def _finish_group(
        self,
        scenarios: List[Scenario],
        futs: List["asyncio.Future[StudyResult]"],
        task: "asyncio.Future[Tuple[List[StudyResult], obs.TelemetrySnapshot]]",
    ) -> None:
        # One flush is one engine run, however many scenarios shared it
        # — that asymmetry is the batching queue's whole point.
        self.telemetry.count("serve.engine_runs")
        self.telemetry.count("serve.batch.flushes")
        self.telemetry.observe("serve.batch.size", len(scenarios))
        try:
            results, snapshot = task.result()
        except Exception as exc:
            for fut in futs:
                if not fut.done():
                    fut.set_exception(exc)
            return
        self.telemetry.absorb(snapshot)
        for scenario, fut, result in zip(scenarios, futs, results):
            if self.store is not None:
                self.store.put(scenario, result, batched=True)
            if not fut.done():
                fut.set_result(result)

    async def close(self) -> None:
        """Flush pending batches, settle in-flight work, stop the worker."""
        self._closed = True
        for gkey in list(self._pending):
            self._flush(gkey)
        pending = [fut for fut in self._inflight.values() if not fut.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        self._executor.shutdown(wait=True)
