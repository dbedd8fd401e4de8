"""Experiment E16: rare-event acceleration vs brute-force Monte-Carlo.

The paper's realistic operating points are exactly where plain
Monte-Carlo censors to death: a daily-scrubbed Cheetah mirror loses
data with probability ~1.7e-4 over a 50-year mission, so reaching a 10%
relative error costs ~600k standard trials — while failure-biased
importance sampling (PR 3) gets there in a few thousand weighted
trials.  This benchmark measures the trials-to-target-RE ratio at that
high-reliability point (acceptance: >= 20x), checks the IS confidence
interval covers the exact Markov-chain value, cross-validates IS
against plain Monte-Carlo at a moderate operating point where both
converge, and records the numbers in ``BENCH_e16.json`` so the perf
trajectory is an artifact, not a commit-message claim.
"""

import time
from pathlib import Path

import pytest

from _harness import (
    standard_trials_to_target,
    trial_years_per_second,
    write_artifact,
)
from repro.analysis.tables import format_table
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import build_mirrored_chain
from repro.markov.transient import loss_probability_over_time
from repro.simulation.batch import simulate_batch
from repro.simulation.estimators import run_loss_probability
from repro.simulation.rare_event import default_failure_bias

#: Daily-scrubbed Cheetah mirrored pair: MTTDL in the hundreds of
#: thousands of years, the regime the paper's conclusions live in.
RARE_MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=12.0,
    correlation_factor=1.0,
)

#: The paper's scrubbed Cheetah pair (~2% mission loss): moderate
#: enough that plain Monte-Carlo converges for a cross-check.
MODERATE_MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=1460.0,
    correlation_factor=1.0,
)

MISSION = 50.0 * HOURS_PER_YEAR
TARGET_RELATIVE_ERROR = 0.1
SPEEDUP_TARGET = 20.0
ARTIFACT = Path("BENCH_e16.json")


@pytest.mark.benchmark(group="e16 rare-event acceleration")
def test_bench_e16_rare_event(benchmark, experiment_printer):
    exact = loss_probability_over_time(build_mirrored_chain(RARE_MODEL), MISSION)
    bias = default_failure_bias(RARE_MODEL, 2, MISSION)

    # Importance sampling: adaptive run to the target relative error.
    start = time.perf_counter()
    weighted = run_loss_probability(
        RARE_MODEL,
        mission_time=MISSION,
        trials=2000,
        seed=16,
        method="is",
        target_relative_error=TARGET_RELATIVE_ERROR,
        max_trials=128000,
    )
    is_seconds = time.perf_counter() - start
    is_trials = weighted.trials

    # What the standard estimator would need for the same precision
    # (deterministic, from the exact loss probability), and what it
    # actually sees in the trial budget IS used.
    std_trials_needed = standard_trials_to_target(exact, TARGET_RELATIVE_ERROR)
    std_same_budget = simulate_batch(
        RARE_MODEL, trials=is_trials, horizon=MISSION, seed=16
    )
    trials_ratio = std_trials_needed / is_trials

    # Moderate operating point: both estimators converge and must agree.
    moderate_exact = loss_probability_over_time(
        build_mirrored_chain(MODERATE_MODEL), MISSION
    )
    moderate_standard = run_loss_probability(
        MODERATE_MODEL,
        mission_time=MISSION,
        trials=4000,
        seed=16,
        backend="batch",
        method="standard",
    )
    moderate_weighted = run_loss_probability(
        MODERATE_MODEL, mission_time=MISSION, trials=4000, seed=16, method="is"
    )

    benchmark(
        lambda: run_loss_probability(
            RARE_MODEL, mission_time=MISSION, trials=2000, seed=16, method="is"
        )
    )

    low, high = weighted.confidence_interval()
    moderate_std_low, moderate_std_high = moderate_standard.confidence_interval()
    moderate_is_low, moderate_is_high = moderate_weighted.confidence_interval()

    payload = {
        "experiment": "e16_rare_event",
        "mission_years": 50.0,
        "target_relative_error": TARGET_RELATIVE_ERROR,
        "high_reliability": {
            "model": RARE_MODEL.as_dict(),
            "markov_exact_loss": exact,
            "bias": bias,
            "is_trials": is_trials,
            "is_mean": weighted.mean,
            "is_ci": [low, high],
            "is_relative_error": weighted.relative_error,
            "is_effective_sample_size": weighted.effective_sample_size,
            "is_seconds": is_seconds,
            "is_trial_years_per_second": trial_years_per_second(
                is_trials, 50.0, is_seconds
            ),
            "standard_trials_needed": std_trials_needed,
            "standard_losses_in_is_budget": std_same_budget.losses,
            "trials_ratio": trials_ratio,
        },
        "moderate": {
            "model": MODERATE_MODEL.as_dict(),
            "markov_exact_loss": moderate_exact,
            "standard_mean": moderate_standard.mean,
            "standard_ci": [moderate_std_low, moderate_std_high],
            "is_mean": moderate_weighted.mean,
            "is_ci": [moderate_is_low, moderate_is_high],
        },
    }
    write_artifact(ARTIFACT, payload)

    experiment_printer(
        "E16: importance sampling vs standard Monte-Carlo "
        f"(target {TARGET_RELATIVE_ERROR:.0%} relative error)",
        format_table(
            ["estimator", "trials to target", "P(loss, 50yr)", "losses seen"],
            [
                ["standard", std_trials_needed, exact, std_same_budget.losses],
                ["importance sampling", is_trials, weighted.mean, weighted.losses],
            ],
        )
        + f"\nexact (Markov): {exact:.4g}   bias factor: {bias:.0f}"
        + f"\ntrials ratio: {trials_ratio:.0f}x (target >= {SPEEDUP_TARGET:.0f}x)"
        + "\nIS throughput: "
        f"{trial_years_per_second(is_trials, 50.0, is_seconds):,.0f} trial-yr/s"
        + f"\nartifact: {ARTIFACT}",
    )

    # The IS run must actually reach the target precision...
    assert weighted.relative_error <= TARGET_RELATIVE_ERROR
    # ...with its CI covering the exact Markov-chain value...
    assert low <= exact <= high
    # ...at >= 20x fewer trials than the standard estimator needs...
    assert trials_ratio >= SPEEDUP_TARGET
    # ...while the standard estimator, given the same budget, sees far
    # too few losses to converge (the censoring-to-death regime).
    assert std_same_budget.losses < 1.0 / TARGET_RELATIVE_ERROR**2
    # At the moderate operating point the two estimators agree within
    # overlapping 95% confidence intervals (and both cover the chain).
    assert moderate_standard.losses > 0
    assert moderate_is_low <= moderate_std_high
    assert moderate_std_low <= moderate_is_high
    assert moderate_std_low <= moderate_exact <= moderate_std_high
