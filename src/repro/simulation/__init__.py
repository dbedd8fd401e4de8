"""Discrete-event Monte-Carlo simulation of replicated storage.

The analytic model makes several simplifying assumptions (linearised
window probabilities, exponential shortcuts).  This subpackage
simulates the paper's model itself: each replica suffers exponential
visible and latent faults, latent faults wait for the next point of a
periodic audit grid to be detected, repairs take ``MRV`` / ``MRL``, and
the healthy replicas' fault rates are divided by the correlation factor
``α`` while any replica is faulty.  It is used to validate the closed
forms (experiment E11) and to regenerate the figures (E9, E10).

Two Monte-Carlo backends simulate that one model: the vectorized batch
simulator (``backend="batch"``, the default, :mod:`repro.simulation.batch`),
which advances thousands of systems in lock-step NumPy sweeps and also
powers the adaptive-sampling mode (``target_relative_error=...``) of
the one estimation loop in :mod:`repro.simulation.estimators`
(:func:`run_mttdl`, :func:`run_loss_probability`), and the event-driven
engine (``backend="event"``, one Python event loop per trial, the
cross-validation reference and the tracer), which runs an audit only
while a latent fault waits for one.  Questions are best posed through
:func:`repro.study.run`; library callers may call the estimators
directly.

For the paper's realistic high-reliability operating points — where
plain Monte-Carlo censors nearly every trial — the estimators accept
rare-event methods (``method="is" | "auto"``) built on
:mod:`repro.simulation.rare_event`: failure-biased importance sampling
with exact path-measure reweighting on the batch backend.

Orthogonally to those, the batch backend offers a variance-reduced
estimator (``variance_reduction="cv"``,
:mod:`repro.simulation.variance_reduction`): a conditional-Monte-Carlo
control variate for threshold-2 schemes, which ``method="auto"`` picks
for them wherever it finishes first.
"""

from repro.simulation.engine import SimulationEngine, EventHandle
from repro.simulation.events import (
    TraceEventType,
    TraceEvent,
    Trace,
)
from repro.simulation.rng import RandomStreams
from repro.simulation.replica import Replica, ReplicaState
from repro.simulation.system import (
    ReplicatedStorageSystem,
    SystemConfig,
    RunResult,
    system_from_fault_model,
)
from repro.simulation.batch import (
    BatchRunResult,
    PiecewiseBatchState,
    simulate_batch,
)
from repro.simulation.estimators import (
    HighCensoringWarning,
    MonteCarloEstimate,
    run_loss_probability,
    run_mttdl,
)
from repro.simulation.monte_carlo import double_fault_combination_counts
from repro.simulation.rare_event import (
    WeightedLossTally,
    analytic_loss_rate,
    default_failure_bias,
)
from repro.simulation.lifetime import loss_probability_curve

__all__ = [
    "SimulationEngine",
    "EventHandle",
    "TraceEventType",
    "TraceEvent",
    "Trace",
    "RandomStreams",
    "Replica",
    "ReplicaState",
    "ReplicatedStorageSystem",
    "SystemConfig",
    "RunResult",
    "system_from_fault_model",
    "BatchRunResult",
    "PiecewiseBatchState",
    "simulate_batch",
    "HighCensoringWarning",
    "MonteCarloEstimate",
    "run_loss_probability",
    "run_mttdl",
    "double_fault_combination_counts",
    "WeightedLossTally",
    "analytic_loss_rate",
    "default_failure_bias",
    "loss_probability_curve",
]
