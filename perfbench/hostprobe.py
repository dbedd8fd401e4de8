#!/usr/bin/env python3
"""The host-speed probe, run in a process of its own.

Usage: started by ``run.py``.  Each line read from standard input runs
the probe once and prints its duration in seconds; end of input ends
the process.  With ``--every SECONDS`` it probes on its own at that
interval, printing ``monotonic-time duration`` lines, until its input
ends.

The probe is fixed interpreter and small-array NumPy work of the kind
the program's kernels do, and shares no code with the program.  It runs
in a process of its own because the same loop inside the benchmark's
process reads up to 1.7x slower after a fleet question than before one
-- program state, not host speed.
"""

from __future__ import annotations

import select
import sys
import time

import numpy

VALUES = numpy.linspace(0.0, 1.0, 2000)
#: Probes run before the first reply, so the first reply is warm.
WARMUP = 5


def probe_seconds() -> float:
    total, slots = 0.0, {}
    start = time.perf_counter()
    for i in range(3000):
        total += float(numpy.minimum(VALUES, 0.5)[i % 2000])
        slots[i & 255] = total
    return time.perf_counter() - start


def main() -> None:
    for _ in range(WARMUP):
        probe_seconds()
    print("ready", flush=True)
    if sys.argv[1:2] == ["--every"]:
        every = float(sys.argv[2])
        while not select.select([sys.stdin], [], [], every)[0]:
            print(time.monotonic(), probe_seconds(), flush=True)
        return
    for _ in sys.stdin:
        print(repr(probe_seconds()), flush=True)


if __name__ == "__main__":
    main()
