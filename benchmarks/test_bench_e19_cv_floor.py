"""Experiment E19: the control-variate floor.

At the e16 high-reliability operating point (daily-scrubbed Cheetah
mirror, P(loss, 50yr) ~ 1.7e-4) the standard binomial estimator needs
~600k trials to reach a 10% relative error.  The conditional-Monte-Carlo
control variate must reach the same target with >= 5x fewer trials,
while its estimate stays anchored to the exact Markov chain.

The record lands in ``BENCH_e19.json`` so the trial reduction is an
artifact, not a commit-message claim.
"""

from pathlib import Path

import pytest

from _harness import (
    available_cores,
    standard_trials_to_target,
    time_best_of,
    write_artifact,
)
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import build_mirrored_chain
from repro.markov.transient import loss_probability_over_time
from repro.simulation.estimators import run_loss_probability

#: The e16 high-reliability point (daily scrubbing).
RARE_MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=12.0,
    correlation_factor=1.0,
)

MISSION = 50.0 * HOURS_PER_YEAR
TARGET_RELATIVE_ERROR = 0.1
#: The control variate must beat the standard estimator's trial count
#: to the same relative error by at least this factor.
CV_TRIALS_RATIO_TARGET = 5.0

ARTIFACT = Path("BENCH_e19.json")


def _cv_estimate():
    return run_loss_probability(
        RARE_MODEL,
        mission_time=MISSION,
        trials=2000,
        seed=19,
        target_relative_error=TARGET_RELATIVE_ERROR,
        max_trials=128_000,
        variance_reduction="cv",
    )


@pytest.mark.benchmark(group="e19 control-variate floor")
def test_bench_e19_cv_floor(benchmark, experiment_printer):
    exact = loss_probability_over_time(
        build_mirrored_chain(RARE_MODEL), MISSION
    )
    cv_estimate, cv_seconds = time_best_of(_cv_estimate, repeats=1)
    benchmark(_cv_estimate)
    std_trials_needed = standard_trials_to_target(
        exact, TARGET_RELATIVE_ERROR
    )
    cv_trials_ratio = std_trials_needed / cv_estimate.trials
    cv_low, cv_high = cv_estimate.confidence_interval()
    offset_se = abs(cv_estimate.mean - exact) / cv_estimate.std_error

    write_artifact(
        ARTIFACT,
        {
            "experiment": "e19_cv_floor",
            "cores": available_cores(),
            "variance_reduction": {
                "model": RARE_MODEL.as_dict(),
                "markov_exact_loss": exact,
                "target_relative_error": TARGET_RELATIVE_ERROR,
                "standard_trials_needed": std_trials_needed,
                "cv_trials": cv_estimate.trials,
                "cv_mean": cv_estimate.mean,
                "cv_std_error": cv_estimate.std_error,
                "cv_ci": [cv_low, cv_high],
                "cv_seconds": cv_seconds,
                "cv_trials_ratio": cv_trials_ratio,
                "cv_offset_std_errors": offset_se,
            },
        },
    )

    experiment_printer(
        "E19: control-variate floor at the e16 rare point",
        f"exact P(loss, 50 y) = {exact:.4e}"
        f"\nCV: {cv_estimate.mean:.4e} +/- {cv_estimate.std_error:.1e} "
        f"({offset_se:.1f} SE off exact) at {cv_estimate.trials} trials "
        f"in {cv_seconds * 1e3:.1f} ms"
        f"\ntrials to {TARGET_RELATIVE_ERROR:.0%} RE: "
        f"{cv_estimate.trials} vs {std_trials_needed} standard "
        f"({cv_trials_ratio:.0f}x, target >= "
        f"{CV_TRIALS_RATIO_TARGET:.0f}x)"
        f"\nartifact: {ARTIFACT}",
    )

    # The control variate must reach the target precision...
    assert cv_estimate.std_error <= TARGET_RELATIVE_ERROR * cv_estimate.mean
    # ...with >= 5x fewer trials than the standard estimator needs...
    assert cv_trials_ratio >= CV_TRIALS_RATIO_TARGET
    # ...while staying anchored to the exact Markov chain.
    assert offset_se <= 4.0

    assert ARTIFACT.exists()
