"""Mission-lifetime curves from Monte-Carlo simulation.

The paper converts MTTDL figures into "probability of data loss in 50
years".  This module produces the whole curve — loss probability as a
function of mission length — directly from simulation, so the
exponential shortcut can be visually compared against the simulated
truth (experiment E11) and mission planning questions ("how long can we
go before a 5% loss risk?") can be answered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.parameters import FaultModel
from repro.core.probability import probability_of_loss
from repro.core.units import HOURS_PER_YEAR
from repro.simulation.rng import RandomStreams
from repro.simulation.system import system_from_fault_model


@dataclass(frozen=True)
class MissionSummary:
    """Loss statistics for one mission length.

    Attributes:
        mission_hours: mission length in hours.
        loss_probability: fraction of trials that lost data.
        std_error: binomial standard error of that fraction.
        exponential_prediction: the analytic shortcut
            ``1 - exp(-mission / MTTDL)`` for the supplied MTTDL, if one
            was provided.
    """

    mission_hours: float
    loss_probability: float
    std_error: float
    exponential_prediction: Optional[float] = None

    @property
    def mission_years(self) -> float:
        return self.mission_hours / HOURS_PER_YEAR


def loss_probability_curve(
    model: FaultModel,
    mission_hours: Sequence[float],
    trials: int = 300,
    seed: int = 0,
    replicas: int = 2,
    audits_per_year: Optional[float] = None,
    analytic_mttdl: Optional[float] = None,
) -> List[MissionSummary]:
    """Simulated loss probability at each mission length.

    Each trial is run once to the longest mission length; shorter
    missions reuse the same trajectories (the loss time either falls
    before the mission end or not), which keeps the curve monotone and
    the comparison across mission lengths noise-free.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    horizons = sorted(set(float(h) for h in mission_hours))
    if not horizons:
        raise ValueError("mission_hours must not be empty")
    if any(h <= 0 for h in horizons):
        raise ValueError("mission lengths must be positive")
    longest = horizons[-1]

    root = RandomStreams(seed=seed)
    loss_times: List[float] = []
    for trial in range(trials):
        system = system_from_fault_model(
            model,
            replicas=replicas,
            streams=root.spawn(trial),
            audits_per_year=audits_per_year,
        )
        result = system.run(max_time=longest)
        loss_times.append(result.end_time if result.lost else float("inf"))
    loss_array = np.array(loss_times)

    summaries: List[MissionSummary] = []
    for horizon in horizons:
        p = float(np.mean(loss_array <= horizon))
        std_error = float(np.sqrt(max(p * (1.0 - p), 1e-12) / trials))
        prediction = (
            probability_of_loss(analytic_mttdl, horizon)
            if analytic_mttdl is not None
            else None
        )
        summaries.append(
            MissionSummary(
                mission_hours=horizon,
                loss_probability=p,
                std_error=std_error,
                exponential_prediction=prediction,
            )
        )
    return summaries
