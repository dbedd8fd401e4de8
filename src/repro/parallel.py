"""The one worker-pool map behind the fleet and optimizer runners.

Both runners fan a top-level task out over a list of payloads and need
each result back in payload order together with the worker's wall time.
:func:`map_timed` is that map: it runs in-process when there is nothing
to parallelise and on a :class:`~concurrent.futures.ProcessPoolExecutor`
otherwise, pickling each ``(result, seconds)`` pair back through the
pool's result pipe.  Every task derives its seeds from its own payload,
so serial and parallel runs return bit-identical results.

The seconds are always measured (two clock reads per task); the runners
record them as ``worker.*`` spans when telemetry is on and ignore them
otherwise.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, List, Sequence, Tuple, TypeVar

P = TypeVar("P")
R = TypeVar("R")


def _timed(task: Callable[[P], R], payload: P) -> Tuple[R, float]:
    start = time.perf_counter()
    result = task(payload)
    return result, time.perf_counter() - start


def map_timed(
    task: Callable[[P], R], payloads: Sequence[P], jobs: int
) -> List[Tuple[R, float]]:
    """``[(task(p), wall_seconds) for p in payloads]``, in payload order.

    Runs in-process when ``jobs == 1`` or there is at most one payload,
    otherwise on ``min(jobs, len(payloads))`` worker processes; ``task``
    must then be a picklable top-level function.  An exception raised by
    any task propagates to the caller in both modes.
    """
    timed = partial(_timed, task)
    if jobs == 1 or len(payloads) <= 1:
        return [timed(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
        return list(pool.map(timed, payloads))
