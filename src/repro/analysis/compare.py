"""Cross-validation of the analytic model, the CTMC, and the simulator.

Experiment E11's machinery: for a parameter set, compute the MTTDL with
the paper's closed forms, with the exact Markov chain, and (optionally)
with Monte-Carlo simulation, then report how far apart they are and why
(the known bookkeeping conventions are documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.approximations import best_approximation
from repro.core.mttdl import mirrored_mttdl, mirrored_mttdl_exact
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.markov.builders import mirrored_mttdl_markov
from repro.simulation.estimators import MonteCarloEstimate, run_mttdl


@dataclass(frozen=True)
class ModelComparison:
    """MTTDL (hours) for one parameter set under each evaluation method.

    Attributes:
        analytic_capped: the paper's Eq. 7 with linearised, capped window
            probabilities (the library default).
        analytic_exact_windows: Eq. 7 with exponential window
            probabilities.
        closed_form_approximation: whichever of Eqs. 9-11 matches the
            operating regime.
        markov: exact CTMC with both copies able to initiate (physical
            convention).
        markov_paper_convention: exact CTMC with the paper's single-
            initiator first-fault rate.
        monte_carlo: simulation estimate, when requested.
    """

    analytic_capped: float
    analytic_exact_windows: float
    closed_form_approximation: float
    markov: float
    markov_paper_convention: float
    monte_carlo: Optional[MonteCarloEstimate] = None

    def as_dict(self) -> Dict[str, float]:
        result = {
            "analytic_capped": self.analytic_capped,
            "analytic_exact_windows": self.analytic_exact_windows,
            "closed_form_approximation": self.closed_form_approximation,
            "markov": self.markov,
            "markov_paper_convention": self.markov_paper_convention,
        }
        if self.monte_carlo is not None:
            result["monte_carlo"] = self.monte_carlo.mean
        return result

    def in_years(self) -> Dict[str, float]:
        return {
            key: value / HOURS_PER_YEAR for key, value in self.as_dict().items()
        }


def compare_models(
    model: FaultModel,
    include_monte_carlo: bool = False,
    trials: int = 100,
    seed: int = 0,
    max_time: Optional[float] = None,
) -> ModelComparison:
    """Evaluate one parameter set with every available method."""
    monte_carlo = None
    if include_monte_carlo:
        monte_carlo = run_mttdl(
            model, trials=trials, seed=seed, max_time=max_time
        )
    return ModelComparison(
        analytic_capped=mirrored_mttdl(model),
        analytic_exact_windows=mirrored_mttdl_exact(model),
        closed_form_approximation=best_approximation(model),
        markov=mirrored_mttdl_markov(model, double_first_fault_rate=True),
        markov_paper_convention=mirrored_mttdl_markov(
            model, double_first_fault_rate=False
        ),
        monte_carlo=monte_carlo,
    )
