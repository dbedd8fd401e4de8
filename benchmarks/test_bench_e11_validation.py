"""Experiment E11: cross-validation of the closed forms, the CTMC, and
Monte-Carlo simulation.

The paper publishes closed-form approximations without a simulator; this
experiment provides the validation its Section 6.7 calls for.  Known,
documented bookkeeping differences (single- vs both-copy first-fault
counting, capped windows vs detection races) bound the spread between
methods.
"""

import pytest

from repro.analysis.compare import compare_models
from repro.analysis.tables import format_table
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.scenarios import paper_scenarios
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.estimators import run_mttdl

#: Compressed-time model for the Monte-Carlo leg of the validation.
FAST_MODEL = FaultModel(
    mean_time_to_visible=2500.0,
    mean_time_to_latent=500.0,
    mean_repair_visible=1.0,
    mean_repair_latent=1.0,
    mean_detect_latent=25.0,
    correlation_factor=1.0,
)


def compute_scenario_comparison():
    return {
        name: compare_models(scenario.model).in_years()
        for name, scenario in paper_scenarios().items()
    }


@pytest.mark.benchmark(group="e11 validation")
def test_bench_e11_analytic_vs_markov(benchmark, experiment_printer):
    comparisons = benchmark(compute_scenario_comparison)

    headers = [
        "scenario",
        "Eq.7 capped (yr)",
        "exact windows (yr)",
        "closed form (yr)",
        "Markov (yr)",
        "Markov, paper conv. (yr)",
    ]
    rows = []
    for name, values in comparisons.items():
        rows.append(
            [
                name,
                values["analytic_capped"],
                values["analytic_exact_windows"],
                values["closed_form_approximation"],
                values["markov"],
                values["markov_paper_convention"],
            ]
        )
    experiment_printer(
        "E11: analytic vs Markov MTTDL across the paper's operating points",
        format_table(headers, rows),
    )

    for name, values in comparisons.items():
        # The paper-convention chain and the capped Eq. 7 must agree
        # closely in the scrubbed regimes and within the documented
        # factor elsewhere.
        ratio = values["markov_paper_convention"] / values["analytic_capped"]
        assert 0.3 < ratio < 3.5, name
        # The physically-exact chain differs by at most the documented
        # factor-of-two convention plus detection-race effects.
        ratio_physical = values["markov"] / values["analytic_capped"]
        assert 0.2 < ratio_physical < 3.0, name


@pytest.mark.benchmark(group="e11 validation")
def test_bench_e11_monte_carlo_leg(benchmark, experiment_printer):
    def compute():
        analytic = mirrored_mttdl(FAST_MODEL)
        markov = compare_models(FAST_MODEL).markov
        estimate = run_mttdl(FAST_MODEL, trials=200, seed=3, max_time=5e6)
        return analytic, markov, estimate

    analytic, markov, estimate = benchmark(compute)
    experiment_printer(
        "E11 (part 2): Monte-Carlo vs analytic on a compressed-time model",
        format_table(
            ["method", "MTTDL (years)"],
            [
                ["Eq. 7 (capped)", analytic / HOURS_PER_YEAR],
                ["Markov chain", markov / HOURS_PER_YEAR],
                ["Monte-Carlo (200 trials)", estimate.mean / HOURS_PER_YEAR],
                ["Monte-Carlo std error", estimate.std_error / HOURS_PER_YEAR],
            ],
        ),
    )

    # The simulator implements the same physics as the Markov chain, so
    # the two should agree within Monte-Carlo noise; the closed form
    # stays within its documented factor.
    assert estimate.mean == pytest.approx(markov, rel=0.25)
    assert 0.2 < estimate.mean / analytic < 3.0
    assert estimate.censored == 0
