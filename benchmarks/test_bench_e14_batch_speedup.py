"""Experiment E14: vectorized batch backend vs the event-driven engine.

The ROADMAP's scale target needs thousand-trial Monte-Carlo sweeps to be
cheap.  This benchmark runs the same 2,000-trial MTTDL estimation
through both backends on a compressed-time mirrored pair, records the
wall-clock speedup of the lock-step NumPy backend over the per-trial
event loops, and checks the two estimates agree within their combined
confidence intervals.  The acceptance target is a >= 10x speedup; in
practice the batch backend lands one to two orders of magnitude ahead.
"""

import time

import pytest

from _harness import time_best_of, trial_years_per_second
from repro.analysis.tables import format_table
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.estimators import run_mttdl

#: Compressed-time mirrored pair (the structure of the Cheetah scenario
#: with time shrunk so losses happen quickly enough to time).
FAST_MODEL = FaultModel(
    mean_time_to_visible=500.0,
    mean_time_to_latent=100.0,
    mean_repair_visible=1.0,
    mean_repair_latent=1.0,
    mean_detect_latent=5.0,
    correlation_factor=1.0,
)

TRIALS = 2000
HORIZON = 1e6
SPEEDUP_TARGET = 10.0


def run_backend(backend: str):
    start = time.perf_counter()
    estimate = run_mttdl(
        FAST_MODEL,
        trials=TRIALS,
        seed=14,
        max_time=HORIZON,
        backend=backend,
    )
    return estimate, time.perf_counter() - start


@pytest.mark.benchmark(group="e14 batch speedup")
def test_bench_e14_batch_speedup(benchmark, experiment_printer):
    event_estimate, event_seconds = run_backend("event")
    # Best-of-three for the fast backend so one scheduling hiccup cannot
    # fake a regression; the event loop is timed once (it dominates the
    # benchmark's budget).
    batch_estimate, batch_seconds = time_best_of(
        lambda: run_backend("batch")[0]
    )
    speedup = event_seconds / batch_seconds

    # Keep the pytest-benchmark timing record attached to the fast path.
    benchmark(
        lambda: run_mttdl(
            FAST_MODEL, trials=TRIALS, seed=14, max_time=HORIZON, backend="batch"
        )
    )

    horizon_years = HORIZON / HOURS_PER_YEAR
    experiment_printer(
        f"E14: batch vs event backend at {TRIALS} trials",
        format_table(
            ["backend", "MTTDL (hours)", "std error", "seconds",
             "trial-yr/s"],
            [
                [
                    "event",
                    event_estimate.mean,
                    event_estimate.std_error,
                    event_seconds,
                    trial_years_per_second(
                        TRIALS, horizon_years, event_seconds
                    ),
                ],
                [
                    "batch",
                    batch_estimate.mean,
                    batch_estimate.std_error,
                    batch_seconds,
                    trial_years_per_second(
                        TRIALS, horizon_years, batch_seconds
                    ),
                ],
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (target >= {SPEEDUP_TARGET:.0f}x)",
    )

    # The two backends must tell the same statistical story...
    event_low, event_high = event_estimate.confidence_interval()
    batch_low, batch_high = batch_estimate.confidence_interval()
    assert event_low <= batch_high and batch_low <= event_high
    assert event_estimate.censored == 0
    assert batch_estimate.censored == 0
    # ...and the batch backend must actually deliver the speed.
    assert speedup >= SPEEDUP_TARGET
