"""repro — reliability modelling toolkit for long-term digital storage.

This package reproduces the analytic model, simulation machinery, and
evaluation of Baker et al., *A Fresh Look at the Reliability of Long-term
Digital Storage* (EuroSys 2006).

The package is organised as:

``repro.core``
    The paper's primary contribution: the window-of-vulnerability MTTDL
    model for mirrored and r-way replicated data with visible faults,
    latent faults, detection time, and a correlation factor.
``repro.markov``
    A continuous-time Markov chain substrate used to cross-validate the
    closed-form model.
``repro.simulation``
    Monte-Carlo simulators of the paper's fault model (exponential
    faults, audit-grid detection, deterministic repairs, the
    correlation factor): an event-driven engine and a vectorized batch
    kernel, with rare-event and variance-reduced estimators.
``repro.storage``
    Drive, media, RAID, site and cost models.
``repro.threats``
    The paper's threat taxonomy as structured event generators.
``repro.audit``
    Audit schedules, the detection latency they buy, and on-line vs
    off-line audit costs.
``repro.baselines``
    Chen et al.'s correlated RAID model, which the paper's ``α``
    replaces.
``repro.analysis``
    Sweeps, analytic-vs-simulation comparison, tables and reports.
``repro.optimize``
    The budget-constrained planner (design spaces, Pareto frontiers).
``repro.fleet``
    Decades-scale non-stationary fleet timelines and their simulator.
``repro.study``
    The unified facade: one declarative ``Scenario`` in, one
    schema-versioned ``StudyResult`` out, across every layer above —
    the recommended entry point for new code::

        from repro.study import EstimatorPolicy, Scenario, SystemSpec, run

        result = run(Scenario(
            question="loss_probability",
            system=SystemSpec(model=model),
            mission_years=50.0,
            policy=EstimatorPolicy(engine="auto", trials=2000, seed=7),
        ))

Quickstart::

    from repro import FaultModel, mirrored_mttdl, probability_of_loss

    model = FaultModel(
        mean_time_to_visible=1.4e6,       # hours
        mean_time_to_latent=2.8e5,        # hours
        mean_repair_visible=1 / 3.0,      # 20 minutes
        mean_repair_latent=1 / 3.0,
        mean_detect_latent=1460.0,        # scrub three times a year
        correlation_factor=1.0,
    )
    mttdl_hours = mirrored_mttdl(model)
    p50 = probability_of_loss(mttdl_hours, mission_time=50 * 8760.0)
"""

from repro.core.parameters import FaultModel, HOURS_PER_YEAR
from repro.core.mttdl import (
    mirrored_mttdl,
    double_fault_rate,
    mirrored_mttdl_exact,
)
from repro.core.replication import replicated_mttdl
from repro.core.probability import (
    probability_of_loss,
    mttdl_for_loss_probability,
)
from repro.core.scenarios import (
    cheetah_no_scrub_scenario,
    cheetah_scrubbed_scenario,
    paper_scenarios,
)

__all__ = [
    "FaultModel",
    "HOURS_PER_YEAR",
    "mirrored_mttdl",
    "mirrored_mttdl_exact",
    "double_fault_rate",
    "replicated_mttdl",
    "probability_of_loss",
    "mttdl_for_loss_probability",
    "cheetah_no_scrub_scenario",
    "cheetah_scrubbed_scenario",
    "paper_scenarios",
]

__version__ = "1.1.0"
