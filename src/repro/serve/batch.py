"""Grouping compatible point questions onto one vectorized kernel call.

The serve layer's batching queue collects *compatible* loss-probability
scenarios — same fault model, redundancy, audits and sampling policy,
differing only in ``mission_years`` (and ``label``) — and answers the
whole group with a single :func:`repro.simulation.batch.simulate_batch`
invocation run to the group's longest mission.  Each member's answer is
then read off the shared per-trial outcomes: a trial counts as a loss
for mission ``m`` when it lost data at or before ``m``.

Sampling semantics, stated precisely: the batch kernel draws all trials
from one lock-step stream, so restricting a horizon-``H`` run to an
earlier mission ``m`` is *not* bit-identical to running the kernel at
horizon ``m`` (the streams diverge once any trial censors at the shorter
horizon).  The grouped answers are exactly unbiased estimates of each
member's loss probability from ``trials`` i.i.d. trajectories — the
same estimator, on common random numbers shared across the group — and
the member whose mission equals the group maximum is bit-identical to a
solo :func:`repro.study.run`, because its kernel call is literally the
same call.  Results are tagged ``details["batched"]`` so the provenance
is explicit in the stored answer.

Eligibility (:func:`batchable`) is deliberately narrow: plain
``engine="batch"`` loss probabilities with no adaptive target, no
importance-sampling bias and no variance reduction — exactly the
configurations where the estimators' loop makes one ``simulate_batch``
call whose per-trial outcomes this module can reuse.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from typing import Dict, List, Sequence

import numpy as np

from repro import obs
from repro.core.units import years_to_hours
from repro.simulation.batch import simulate_batch
from repro.simulation.estimators import binomial_loss_estimate
from repro.study.result import StudyResult
from repro.study.scenario import Scenario

__all__ = ["batchable", "group_key", "run_group"]


def batchable(scenario: Scenario) -> bool:
    """Whether a scenario is eligible for the shared-kernel batch path."""
    policy = scenario.policy
    return (
        scenario.question == "loss_probability"
        and scenario.system is not None
        and policy.engine == "batch"
        and policy.target_relative_error is None
        and policy.bias is None
        and policy.variance_reduction == "none"
    )


def group_key(scenario: Scenario) -> str:
    """The compatibility class a batchable scenario belongs to.

    Everything but ``mission_years`` and ``label``: two scenarios in the
    same group share the fault model, redundancy scheme, audit rate,
    trial count and seed, so one kernel invocation serves both.
    """
    payload = scenario.as_dict()
    payload["mission_years"] = None
    payload["label"] = None
    return json.dumps(payload, sort_keys=True)


def run_group(scenarios: Sequence[Scenario]) -> List[StudyResult]:
    """Answer a compatible group with one ``simulate_batch`` call.

    Results are ordered like the input.  The caller is responsible for
    only grouping scenarios that share a :func:`group_key` (asserted
    here, since a silent mismatch would corrupt every member's answer).
    """
    if not scenarios:
        return []
    keys = {group_key(s) for s in scenarios}
    if len(keys) > 1:
        raise ValueError(
            f"run_group needs one compatibility class, got {len(keys)}"
        )
    for scenario in scenarios:
        if not batchable(scenario):
            raise ValueError(
                "run_group accepts batchable scenarios only "
                f"(got question={scenario.question!r}, "
                f"engine={scenario.policy.engine!r})"
            )
    lead = scenarios[0]
    spec = lead.system
    policy = lead.policy
    missions_hours = [years_to_hours(s.mission_years) for s in scenarios]
    horizon = max(missions_hours)

    tel = obs.current()
    start = time.perf_counter()
    with tel.span("kernel"):
        outcome = simulate_batch(
            spec.model,
            trials=policy.trials,
            horizon=horizon,
            seed=policy.seed,
            replicas=spec.replicas,
            audits_per_year=spec.audits_per_year,
            chunk=0,
            scheme=spec.scheme,
        )
    wall_time = time.perf_counter() - start
    if tel.enabled:
        tel.count("serve.batch.members", len(scenarios))
        tel.event(
            "batch_group",
            data={
                "members": len(scenarios),
                "trials": policy.trials,
                "horizon_years": horizon / years_to_hours(1.0),
                "seed": policy.seed,
            },
            timing={"kernel_seconds": wall_time},
        )

    group_hashes = [s.content_hash() for s in scenarios]
    results: List[StudyResult] = []
    for scenario, mission_hours, scenario_hash in zip(
        scenarios, missions_hours, group_hashes
    ):
        # A trial lost data within this member's mission iff it lost at
        # all and the loss happened at or before the mission end
        # (end_time holds the horizon for censored trials, so the lost
        # mask alone already excludes them).
        losses = int(
            np.count_nonzero(outcome.lost & (outcome.end_time <= mission_hours))
        )
        estimate = binomial_loss_estimate(losses, outcome.trials)
        details: Dict[str, object] = {
            "batched": {
                "members": len(scenarios),
                "horizon_years": horizon / years_to_hours(1.0),
                "bit_identical_to_solo": mission_hours == horizon,
            }
        }
        result = StudyResult.from_estimate(
            "loss_probability", "batch", estimate, "probability", details
        )
        results.append(
            replace(
                result,
                seed=policy.seed,
                scenario_hash=scenario_hash,
                wall_time_seconds=wall_time,
            )
        )
    return results
