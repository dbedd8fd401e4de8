"""repro.study — the unified reliability-study facade.

One declarative front door to every evaluation layer in the toolkit:

.. code-block:: python

    from repro import FaultModel
    from repro.study import EstimatorPolicy, Scenario, SystemSpec, run

    scenario = Scenario(
        question="loss_probability",
        system=SystemSpec(model=FaultModel(1.4e6, 2.8e5, 1 / 3, 1 / 3, 1460.0)),
        mission_years=50.0,
        policy=EstimatorPolicy(engine="auto", trials=2000, seed=7),
    )
    result = run(scenario)
    print(result.value, result.ci_low, result.ci_high, result.method)
    result.to_json("answer.json")   # schema-versioned, provenance-carrying

Scenarios cover five question kinds (``mttdl``, ``loss_probability``,
``frontier``, ``fleet_survival``, ``sweep``) and seven engines
(``auto``, ``analytic``, ``markov``, ``event``, ``batch``, ``is``,
``fleet``); both the scenario and the result JSON-roundtrip, tolerate
unknown fields, and carry content hashes compatible with the
optimize/fleet result caches.  Every question comes through
:func:`run`, which dispatches simulated point estimates and sweep
points to the estimators (:func:`~repro.simulation.estimators.run_mttdl`,
:func:`~repro.simulation.estimators.run_loss_probability`); the
``event`` engine runs the event-driven simulator of the same fault
model the ``batch`` kernel runs.
"""

from repro.study.engine import run
from repro.study.render import (
    CLI_JSON_SCHEMA_VERSION,
    emit_json,
    render_json,
    render_text,
)
from repro.study.result import SCHEMA_VERSION, StudyResult
from repro.study.scenario import (
    ENGINES,
    FRONTIER_ENGINES,
    QUESTIONS,
    SWEEP_ENGINES,
    EstimatorPolicy,
    Scenario,
    SweepSpec,
    SystemSpec,
    engine_backend_method,
    engine_for,
)

__all__ = [
    "CLI_JSON_SCHEMA_VERSION",
    "ENGINES",
    "FRONTIER_ENGINES",
    "QUESTIONS",
    "SCHEMA_VERSION",
    "SWEEP_ENGINES",
    "EstimatorPolicy",
    "Scenario",
    "StudyResult",
    "SweepSpec",
    "SystemSpec",
    "emit_json",
    "engine_backend_method",
    "engine_for",
    "render_json",
    "render_text",
    "run",
]
