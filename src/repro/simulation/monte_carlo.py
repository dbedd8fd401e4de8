"""Figure-shaped Monte-Carlo experiments on plain fault models.

:func:`double_fault_combination_counts` tallies which fault combination
caused each simulated loss (experiment E10, the paper's Figure 2), and
:func:`run_single_trace` records one traced trajectory (experiment E9).
MTTDL and mission loss-probability estimates come from
:func:`repro.study.run` or the estimators in
:mod:`repro.simulation.estimators`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.faults import FaultType
from repro.core.parameters import FaultModel
from repro.simulation.batch import simulate_batch
from repro.simulation.estimators import check_backend
from repro.simulation.rng import RandomStreams
from repro.simulation.system import RunResult, system_from_fault_model

__all__ = ["double_fault_combination_counts", "run_single_trace"]


def double_fault_combination_counts(
    model: FaultModel,
    trials: int = 500,
    seed: int = 0,
    max_time: Optional[float] = None,
    replicas: int = 2,
    backend: str = "batch",
    audits_per_year: Optional[float] = None,
) -> Dict[Tuple[FaultType, FaultType], int]:
    """Count which (first fault, final fault) combination caused each loss.

    Reproduces Figure 2 of the paper empirically: of the losses observed
    across the trials, how many were visible→visible, visible→latent,
    latent→visible, latent→latent.  ``audits_per_year`` overrides the
    model-derived audit grid in both backends (it used to be silently
    ignored, so the batch path always scrubbed at the model's rate).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    check_backend(backend)
    if max_time is None:
        max_time = 1000.0 * model.mean_time_to_visible
    if backend == "batch":
        result = simulate_batch(
            model,
            trials=trials,
            horizon=max_time,
            seed=seed,
            replicas=replicas,
            audits_per_year=audits_per_year,
        )
        return result.combination_counts()
    root = RandomStreams(seed=seed)
    counts: Dict[Tuple[FaultType, FaultType], int] = {
        (first, second): 0
        for first in (FaultType.VISIBLE, FaultType.LATENT)
        for second in (FaultType.VISIBLE, FaultType.LATENT)
    }
    for trial in range(trials):
        system = system_from_fault_model(
            model,
            replicas=replicas,
            streams=root.spawn(trial),
            audits_per_year=audits_per_year,
        )
        result = system.run(max_time=max_time)
        if (
            result.lost
            and result.first_fault_type is not None
            and result.final_fault_type is not None
        ):
            counts[(result.first_fault_type, result.final_fault_type)] += 1
    return counts


def run_single_trace(
    model: FaultModel,
    seed: int = 0,
    max_time: Optional[float] = None,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
) -> RunResult:
    """Run one traced simulation (used by the Figure-1 style experiment)."""
    if max_time is None:
        max_time = 100.0 * model.mean_time_to_visible
    system = system_from_fault_model(
        model,
        replicas=replicas,
        streams=RandomStreams(seed=seed),
        audits_per_year=audits_per_year,
        trace=True,
    )
    return system.run(max_time=max_time)
