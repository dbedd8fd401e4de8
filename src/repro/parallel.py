"""The one worker-pool map behind the fleet and optimizer runners.

Both runners fan a top-level task out over a list of payloads and need
each result back in payload order together with the worker's wall time.
:func:`map_timed` is that map: it runs in-process when there is nothing
to parallelise and on a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise, pickling each ``(result, seconds)`` pair back through the
pool's result pipe.  Every task derives its seeds from its own payload,
so serial and parallel runs return bit-identical results.

The pool lives as long as the process.  The first map that needs
workers creates it with ``jobs`` workers, later maps reuse it, and a
map with a different ``jobs`` replaces it, so a parallel answer pays a
fork and a teardown only once per process (per answer they had cost
about 16 ms of a ~52 ms perfbench fleet answer on a 2-core x86-64
host).  The start method is the platform default.  A long-lived pool
needs three guarantees, which :func:`_init_worker` and
:func:`map_timed` give:

* **Workers record nothing.**  Fork copies whatever telemetry session
  was active when the pool was created, trace writer and unflushed
  buffer included, so each worker points :func:`repro.obs.current` at
  :data:`repro.obs.NULL` before its first task.  A ``jobs > 1`` trace
  holds the parent's records only.
* **Workers die with their parent.**  A daemon thread in each worker
  calls :func:`os._exit` once the parent's sentinel fires, so a killed
  server leaves no worker behind holding its listening socket.
* **A broken pool is dropped.**  A map that raises
  :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
  died) forgets the pool before re-raising, and the next map forks a
  fresh one.  The failed map is not retried.

Fork also copies every socket open at that moment into the workers,
where it stays open, so :mod:`repro.serve.server` shuts each
connection down for writing instead of only closing it.

The seconds are always measured (two clock reads per task); the runners
record them as ``worker.*`` spans when telemetry is on and ignore them
otherwise.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from multiprocessing.connection import wait
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.obs import telemetry

P = TypeVar("P")
R = TypeVar("R")

#: This process's pool and its worker count; ``None`` before the first
#: parallel map and after a broken one.
_POOL: Optional[Tuple[int, ProcessPoolExecutor]] = None
_POOL_LOCK = threading.Lock()


def _exit_with_parent() -> None:
    wait([multiprocessing.parent_process().sentinel])
    os._exit(1)


def _init_worker() -> None:
    """Run once in each worker before its first task."""
    # Fork copied the parent's registry, trace writer included.
    telemetry._CURRENT = telemetry.NULL
    threading.Thread(target=_exit_with_parent, daemon=True).start()


def _pool(jobs: int) -> ProcessPoolExecutor:
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[0] != jobs:
            _POOL[1].shutdown()
            _POOL = None
        if _POOL is None:
            _POOL = (
                jobs,
                ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker),
            )
        return _POOL[1]


def _forget(pool: ProcessPoolExecutor) -> None:
    global _POOL
    with _POOL_LOCK:
        if _POOL is not None and _POOL[1] is pool:
            _POOL = None


def _timed(task: Callable[[P], R], payload: P) -> Tuple[R, float]:
    start = time.perf_counter()
    result = task(payload)
    return result, time.perf_counter() - start


def map_timed(
    task: Callable[[P], R], payloads: Sequence[P], jobs: int
) -> List[Tuple[R, float]]:
    """``[(task(p), wall_seconds) for p in payloads]``, in payload order.

    Runs in-process when ``jobs == 1`` or there is at most one payload,
    otherwise on the process's pool of ``jobs`` workers, created by the
    first such call and reused by later ones; ``task`` must then be a
    picklable top-level function.  An exception raised by any task
    propagates to the caller in both modes.  ``BrokenProcessPool``
    (a worker died) propagates too, and the next call gets a fresh
    pool.
    """
    timed = partial(_timed, task)
    if jobs == 1 or len(payloads) <= 1:
        return [timed(payload) for payload in payloads]
    pool = _pool(jobs)
    try:
        return list(pool.map(timed, payloads))
    except BrokenProcessPool:
        _forget(pool)
        raise
