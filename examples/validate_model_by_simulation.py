#!/usr/bin/env python3
"""Validate the analytic model against the Markov chain and the simulator.

The paper publishes closed-form approximations and asks (Section 6.7)
for data and tooling to validate them.  This example is that tooling in
miniature: for a compressed-time parameter set it computes the MTTDL
with the closed forms, the exact CTMC, and Monte-Carlo simulation, then
plots the simulated mission-loss curve against the exponential shortcut
the paper uses.

Run with::

    python examples/validate_model_by_simulation.py

``REPRO_EXAMPLE_SCALE`` (a multiplier in (0, 1], used by the CI smoke
job) shrinks the Monte-Carlo budgets proportionally.
"""

import os

from repro import study
from repro.analysis.compare import compare_models
from repro.analysis.plotting import ascii_line_chart
from repro.analysis.tables import format_dict, format_table
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.lifetime import loss_probability_curve

#: Compressed-time model: same structure as the paper's Cheetah pair
#: (latent faults five times as frequent as visible ones, scrub interval
#: far above the repair time) but with hour-scale mean times so the
#: Monte-Carlo runs finish in seconds.
_SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0"))


def _scaled(budget: int, floor: int = 50) -> int:
    return max(floor, int(budget * _SCALE))


MODEL = FaultModel(
    mean_time_to_visible=2500.0,
    mean_time_to_latent=500.0,
    mean_repair_visible=1.0,
    mean_repair_latent=1.0,
    mean_detect_latent=25.0,
    correlation_factor=1.0,
)


def mttdl_comparison() -> None:
    print("== MTTDL under every evaluation method ==\n")
    comparison = compare_models(MODEL)

    def mttdl(**policy) -> study.StudyResult:
        return study.run(
            study.Scenario(
                question="mttdl",
                system=study.SystemSpec(model=MODEL),
                max_time_hours=5e6,
                policy=study.EstimatorPolicy(seed=1, **policy),
            )
        )

    estimate = mttdl(engine="event", trials=_scaled(300))
    # The vectorized backend makes a 20x larger sample just as cheap,
    # and adaptive sampling keeps extending it until the confidence
    # interval is tight.
    batch = mttdl(
        engine="batch", trials=_scaled(6000), target_relative_error=0.01
    )
    rows = [[name, value] for name, value in comparison.in_years().items()]
    rows.append(
        [f"monte_carlo ({estimate.trials} trials)", estimate.value / HOURS_PER_YEAR]
    )
    rows.append(["monte_carlo 95% CI low", estimate.ci_low / HOURS_PER_YEAR])
    rows.append(["monte_carlo 95% CI high", estimate.ci_high / HOURS_PER_YEAR])
    rows.append(
        [f"batch backend ({batch.trials} trials)", batch.value / HOURS_PER_YEAR]
    )
    print(format_table(["method", "MTTDL (years)"], rows))
    print(
        "\nThe Markov chain and the simulator agree; the closed forms sit within\n"
        "their documented conventions (single- vs both-copy first-fault counting,\n"
        "capped windows vs an explicit detection race)."
    )


def mission_curve() -> None:
    print("\n== Mission loss probability: simulation vs exponential shortcut ==\n")
    analytic = mirrored_mttdl(MODEL)
    horizons = [20000.0 * i for i in range(1, 11)]
    curve = loss_probability_curve(
        MODEL, horizons, trials=_scaled(250), seed=5, analytic_mttdl=analytic
    )
    rows = [
        [
            point.mission_hours,
            point.loss_probability,
            point.exponential_prediction,
            point.std_error,
        ]
        for point in curve
    ]
    print(
        format_table(
            ["mission (hours)", "simulated P(loss)", "1 - exp(-t/MTTDL)", "std err"],
            rows,
        )
    )
    chart = ascii_line_chart(
        [point.mission_hours for point in curve],
        [max(point.loss_probability, 1e-4) for point in curve],
        title="simulated loss probability vs mission length",
    )
    print("\n" + chart)


def scrubbing_ablation() -> None:
    print("\n== Ablation: how much does the scrub interval matter here? ==\n")
    results = {}
    for label, mdl in (("aggressive (MDL=5h)", 5.0), ("paper-like (MDL=25h)", 25.0),
                       ("lazy (MDL=250h)", 250.0), ("never", MODEL.mean_time_to_latent)):
        adjusted = MODEL.with_detection_time(mdl)
        results[label] = mirrored_mttdl(adjusted) / HOURS_PER_YEAR
    print(format_dict(results, title="MTTDL (years) by scrub aggressiveness"))


def main() -> None:
    mttdl_comparison()
    mission_curve()
    scrubbing_ablation()


if __name__ == "__main__":
    main()
