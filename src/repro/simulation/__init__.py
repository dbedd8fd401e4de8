"""Discrete-event Monte-Carlo simulation of replicated storage.

The analytic model makes several simplifying assumptions (linearised
window probabilities, exponential processes, multiplicative correlation).
This subpackage provides an event-driven simulator of a replicated
storage system in which each replica suffers visible and latent faults,
latent faults wait for an audit (or access) to be detected, repairs take
time, and correlation can be modelled either with the paper's
multiplicative factor or with explicit shared-fate shock events.  It is
used to validate the closed forms (experiment E11) and to regenerate the
figures (E9, E10).

Two Monte-Carlo backends are available: the event-driven engine
(``backend="event"``, general but one Python event loop per trial) and
the vectorized batch simulator (``backend="batch"``,
:mod:`repro.simulation.batch`), which advances thousands of
FaultModel-derived systems in lock-step NumPy sweeps and also powers the
adaptive-sampling mode (``target_relative_error=...``) of the
estimators in :mod:`repro.simulation.monte_carlo`.

For the paper's realistic high-reliability operating points — where
plain Monte-Carlo censors nearly every trial — the estimators accept
rare-event methods (``method="is" | "splitting" | "auto"``) built on
:mod:`repro.simulation.rare_event`: failure-biased importance sampling
with exact path-measure reweighting on the batch backend, and
fixed-effort multilevel splitting on the event backend.

Orthogonally to those, the batch backend offers a variance-reduced
estimator (``variance_reduction="cv"``,
:mod:`repro.simulation.variance_reduction`): a conditional-Monte-Carlo
control variate for threshold-2 schemes.
"""

from repro.simulation.engine import SimulationEngine, EventHandle
from repro.simulation.events import (
    TraceEventType,
    TraceEvent,
    Trace,
)
from repro.simulation.rng import RandomStreams
from repro.simulation.faults import (
    FaultProcess,
    ExponentialFaultProcess,
    WeibullFaultProcess,
    BathtubFaultProcess,
)
from repro.simulation.correlation import (
    CorrelationModel,
    IndependentFaults,
    MultiplicativeCorrelation,
    SharedFateShocks,
)
from repro.simulation.replica import Replica, ReplicaState
from repro.simulation.scrubbing import (
    ScrubPolicy,
    NoScrubbing,
    PeriodicScrubbing,
    PoissonScrubbing,
    OnAccessDetection,
)
from repro.simulation.repair import (
    RepairPolicy,
    ImmediateRepair,
    HotSpareRepair,
    OperatorRepair,
    OfflineMediaRepair,
)
from repro.simulation.system import (
    ReplicatedStorageSystem,
    ReplicaSnapshot,
    SystemConfig,
    SystemSnapshot,
    RunResult,
    system_from_fault_model,
)
from repro.simulation.batch import (
    BatchRunResult,
    PiecewiseBatchState,
    RateSegment,
    simulate_batch,
    simulate_batch_piecewise,
)
from repro.simulation.monte_carlo import (
    HighCensoringWarning,
    MonteCarloEstimate,
    estimate_mttdl,
    estimate_loss_probability,
    double_fault_combination_counts,
)
from repro.simulation.rare_event import (
    WeightedLossTally,
    analytic_loss_rate,
    default_failure_bias,
    effective_sample_size,
    mttdl_from_loss_probability,
    splitting_loss_probability,
)
from repro.simulation.lifetime import (
    loss_probability_curve,
    mission_summary,
)
from repro.simulation.estimators import (
    VARIANCE_REDUCTIONS,
    run_loss_probability,
    run_mttdl,
)
from repro.simulation.variance_reduction import (
    cv_loss_probability,
    variance_reduced_loss_probability,
)

__all__ = [
    "SimulationEngine",
    "EventHandle",
    "TraceEventType",
    "TraceEvent",
    "Trace",
    "RandomStreams",
    "FaultProcess",
    "ExponentialFaultProcess",
    "WeibullFaultProcess",
    "BathtubFaultProcess",
    "CorrelationModel",
    "IndependentFaults",
    "MultiplicativeCorrelation",
    "SharedFateShocks",
    "Replica",
    "ReplicaState",
    "ScrubPolicy",
    "NoScrubbing",
    "PeriodicScrubbing",
    "PoissonScrubbing",
    "OnAccessDetection",
    "RepairPolicy",
    "ImmediateRepair",
    "HotSpareRepair",
    "OperatorRepair",
    "OfflineMediaRepair",
    "ReplicatedStorageSystem",
    "ReplicaSnapshot",
    "SystemConfig",
    "SystemSnapshot",
    "RunResult",
    "system_from_fault_model",
    "BatchRunResult",
    "PiecewiseBatchState",
    "RateSegment",
    "simulate_batch",
    "simulate_batch_piecewise",
    "HighCensoringWarning",
    "MonteCarloEstimate",
    "estimate_mttdl",
    "estimate_loss_probability",
    "double_fault_combination_counts",
    "WeightedLossTally",
    "analytic_loss_rate",
    "default_failure_bias",
    "effective_sample_size",
    "mttdl_from_loss_probability",
    "splitting_loss_probability",
    "loss_probability_curve",
    "mission_summary",
    "VARIANCE_REDUCTIONS",
    "run_loss_probability",
    "run_mttdl",
    "cv_loss_probability",
    "variance_reduced_loss_probability",
]
