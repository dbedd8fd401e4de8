"""Experiment E15: the budget-constrained planner's two speed levers.

The optimizer promises to make design-space search cheap two ways:

1. **multi-fidelity screening** — the analytic screen must prune at
   least half of the candidate space before any Monte-Carlo runs, and
2. **parallel refinement** — evaluating the screening survivors across
   a process pool must beat the serial loop whenever more than one CPU
   is actually available (on a single-core host the pool can only add
   overhead, so there the check degrades to a bounded-overhead
   assertion).

Both runs must produce bit-identical refinements: per-candidate seeds
are spawned from the root seed, not from evaluation order.
"""

import statistics
import time

import pytest

from _harness import available_cores, trial_years_per_second
from repro.analysis.tables import format_table
from repro.optimize import DesignSpace, EvaluationSettings, optimize

SPACE = DesignSpace(
    dataset_tb=50.0,
    media=("drive:barracuda", "drive:cheetah", "media:tape"),
    replica_counts=(2, 3),
    audit_rates=(0.0, 1.0, 12.0, 52.0),
    placements=("single", "multi"),
)

SETTINGS = EvaluationSettings(mission_years=50.0, trials=20_000, seed=15)

#: The analytic screen must remove at least this share of the space.
PRUNE_TARGET = 0.5

#: Worker processes for the parallel leg.
JOBS = 4

#: On a single-core host the pool cannot win; it must at least stay
#: within this factor of the serial loop (process startup + pickling).
SINGLE_CORE_OVERHEAD_LIMIT = 1.6

#: Serial/parallel timing pairs.  Each pair runs both legs back to back
#: (alternating which goes first), so a co-tenant's load falls on both,
#: and the medians ignore a stall in either.
TIMING_PAIRS = 5


@pytest.mark.benchmark(group="e15 optimizer")
def test_bench_e15_optimizer(benchmark, experiment_printer):
    # Alternating pairs on BOTH legs: a scheduling hiccup or a busy
    # co-tenant on a shared runner must not fake a pool regression (or
    # a pool win).
    runs = {1: [], JOBS: []}
    results = {}
    for pair in range(TIMING_PAIRS):
        for jobs in (1, JOBS) if pair % 2 == 0 else (JOBS, 1):
            start = time.perf_counter()
            results[jobs] = optimize(SPACE, SETTINGS, jobs=jobs)
            runs[jobs].append(time.perf_counter() - start)
    serial, parallel = results[1], results[JOBS]
    serial_seconds = statistics.median(runs[1])
    parallel_seconds = statistics.median(runs[JOBS])
    cores = available_cores()
    speedup = serial_seconds / parallel_seconds

    benchmark(lambda: optimize(SPACE, SETTINGS, jobs=1, refine_survivors=False))

    experiment_printer(
        f"E15: planner screening + parallel refinement "
        f"({SPACE.size} candidates, {cores} cores)",
        format_table(
            ["stage", "candidates", "seconds"],
            [
                ["analytic screen (all)", serial.candidates, "-"],
                ["pruned by screen", serial.pruned, "-"],
                ["refined serially", len(serial.refined), serial_seconds],
                [f"refined with {JOBS} jobs", len(parallel.refined), parallel_seconds],
            ],
        )
        + f"\npruned fraction: {serial.pruned_fraction:.0%} (target >= {PRUNE_TARGET:.0%})"
        + f"\nparallel speedup: {speedup:.2f}x"
        + "\nrefinement throughput: "
        f"{trial_years_per_second(len(serial.refined) * SETTINGS.trials, SETTINGS.mission_years, serial_seconds):,.0f}"
        " trial-yr/s serial, "
        f"{trial_years_per_second(len(parallel.refined) * SETTINGS.trials, SETTINGS.mission_years, parallel_seconds):,.0f}"
        f" trial-yr/s with {JOBS} jobs",
    )

    # Screening must do at least half the work analytically.
    assert serial.pruned_fraction >= PRUNE_TARGET

    # Serial and parallel refinement are the same computation: identical
    # survivors, identical per-candidate seeds, identical estimates.
    assert [e.candidate.key() for e in serial.refined] == [
        e.candidate.key() for e in parallel.refined
    ]
    assert [e.simulated.as_dict() for e in serial.refined] == [
        e.simulated.as_dict() for e in parallel.refined
    ]

    # The pool must pay off wherever it can possibly pay off.
    if cores > 1:
        assert parallel_seconds < serial_seconds
    else:
        assert parallel_seconds < serial_seconds * SINGLE_CORE_OVERHEAD_LIMIT
