"""Experiment E17: decades-scale fleet simulation vs per-member loops.

The paper's question is fleet-shaped: what fraction of thousands of
archives survives 50 years of refreshes, migrations and shocks?  The
``repro.fleet`` population kernel answers it by advancing every member
in lock-step NumPy sweeps over a piecewise-constant timeline.  This
benchmark (1) times a 2,000-member x 50-year stationary fleet against
the honest alternative — looping the event-driven engine once per
member — with a >= 30x acceptance target; (2) anchors correctness by
requiring the stationary fleet's loss fraction to agree, within 95%
confidence intervals, with both ``run_loss_probability`` and the
event loop it raced; and (3) records a 3-epoch non-stationary
demonstration run (generation refresh with aging + Kryder-declining
costs).  Everything lands in ``BENCH_e17.json`` so the speedup and the
anchor are artifacts, not commit-message claims.
A companion run repeats the stationary fleet through the study facade
with the ``repro.obs`` flight recorder on, writing ``TRACE_e17.jsonl``
(schema-validated, uploaded next to the numbers in CI) and asserting
the observability acceptance floor: on a separate cold run of
``COVERAGE_MEMBERS`` members (hundreds of ms) the engine's
setup/kernel/merge spans must account for >= 95% of the run's wall
time, and a repeat run against the chunk cache must flip every lookup
from miss to hit.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from _harness import (
    intervals_overlap,
    time_best_of,
    trial_years_per_second,
    write_artifact,
)
from repro import obs, study
from repro.analysis.tables import format_table
from repro.core.parameters import FaultModel
from repro.core.units import HOURS_PER_YEAR
from repro.fleet import (
    generation_refresh_timeline,
    simulate_fleet,
    stationary_timeline,
)
from repro.simulation.estimators import run_loss_probability
from repro.simulation.rng import RandomStreams
from repro.simulation.system import system_from_fault_model

#: The paper's scrubbed Cheetah mirrored pair at real (uncompressed)
#: rates: P(loss, 50yr) ~ 2%, so 2,000 members see enough losses for a
#: meaningful binomial interval.
MODEL = FaultModel(
    mean_time_to_visible=1.4e6,
    mean_time_to_latent=2.8e5,
    mean_repair_visible=1.0 / 3.0,
    mean_repair_latent=1.0 / 3.0,
    mean_detect_latent=1460.0,
    correlation_factor=1.0,
)

MEMBERS = 2000
YEARS = 50.0
MISSION = YEARS * HOURS_PER_YEAR
SPEEDUP_TARGET = 30.0
ARTIFACT = Path("BENCH_e17.json")
TRACE_ARTIFACT = Path("TRACE_e17.jsonl")
SPAN_COVERAGE_TARGET = 0.95
#: Members of the cold run the span-coverage floor is checked on.  The
#: time outside spans is a fixed ~0.1 ms, so on the 3 ms 2,000-member
#: run a scheduler stall of ~0.07 ms broke the floor; a run of hundreds
#: of ms measures the facade, not the scheduler.
COVERAGE_MEMBERS = 400_000


def run_event_loop(members, seed):
    """The per-member alternative: one event engine run per archive."""
    root = RandomStreams(seed=seed)
    losses = 0
    start = time.perf_counter()
    for member in range(members):
        system = system_from_fault_model(
            MODEL, replicas=2, streams=root.spawn(member)
        )
        if system.run(max_time=MISSION).lost:
            losses += 1
    return losses, time.perf_counter() - start


@pytest.mark.benchmark(group="e17 fleet timeline simulator")
def test_bench_e17_fleet(benchmark, experiment_printer):
    timeline = stationary_timeline(MODEL, YEARS)

    event_losses, event_seconds = run_event_loop(MEMBERS, seed=17)
    # Best-of-three for the fast path, as in e14: one scheduling hiccup
    # must not fake a regression.
    fleet_result, fleet_seconds = time_best_of(
        lambda: simulate_fleet(timeline, MEMBERS, seed=17)
    )
    speedup = event_seconds / fleet_seconds

    benchmark(lambda: simulate_fleet(timeline, MEMBERS, seed=17))

    # Regression anchor: the stationary fleet is the point estimators'
    # system, so the three estimates must tell one statistical story.
    fleet_estimate = fleet_result.loss_estimate()
    fleet_low, fleet_high = fleet_estimate.confidence_interval()
    reference = run_loss_probability(
        MODEL,
        mission_time=MISSION,
        trials=20000,
        seed=18,
        backend="batch",
        method="standard",
    )
    ref_low, ref_high = reference.confidence_interval()
    p_event = event_losses / MEMBERS
    event_se = math.sqrt(max(p_event * (1 - p_event), 1e-12) / MEMBERS)
    event_low = p_event - 1.96 * event_se
    event_high = p_event + 1.96 * event_se

    # Non-stationary demonstration: three media generations with
    # late-life aging and Kryder-declining refresh costs.
    demo_timeline = generation_refresh_timeline(
        years=YEARS,
        refresh_every_years=18.0,
        aging_onset_fraction=0.6,
        aging_hazard_multiplier=3.0,
    )
    demo = simulate_fleet(demo_timeline, MEMBERS, seed=17)
    demo_survival = demo.survival_curve()
    demo_cost = demo.cumulative_cost_per_member()

    payload = {
        "experiment": "e17_fleet",
        "members": MEMBERS,
        "years": YEARS,
        "stationary": {
            "model": MODEL.as_dict(),
            "fleet_seconds": fleet_seconds,
            "event_loop_seconds": event_seconds,
            "speedup": speedup,
            "trial_years_per_second": trial_years_per_second(
                MEMBERS, YEARS, fleet_seconds
            ),
            "fleet_loss_fraction": fleet_estimate.mean,
            "fleet_ci": [fleet_low, fleet_high],
            "event_loop_loss_fraction": p_event,
            "event_loop_ci": [event_low, event_high],
            "estimator_loss": reference.mean,
            "estimator_ci": [ref_low, ref_high],
            "sweeps": fleet_result.tally.sweeps,
        },
        "non_stationary_demo": {
            "timeline": demo_timeline.as_dict(),
            "loss_fraction": demo.tally.loss_fraction,
            "migration_losses": demo.tally.migration_losses,
            "repairs": demo.tally.repairs,
            "survival_curve": demo_survival.tolist(),
            "cumulative_cost_per_member": demo_cost.tolist(),
        },
    }
    write_artifact(ARTIFACT, payload)

    experiment_printer(
        f"E17: fleet timeline simulator at {MEMBERS} members x "
        f"{YEARS:g} years",
        format_table(
            ["method", "P(loss, 50yr)", "95% CI low", "95% CI high",
             "seconds"],
            [
                ["fleet kernel", fleet_estimate.mean, fleet_low,
                 fleet_high, fleet_seconds],
                ["event loop / member", p_event, event_low, event_high,
                 event_seconds],
                ["run_loss_probability", reference.mean, ref_low,
                 ref_high, float("nan")],
            ],
        )
        + f"\nspeedup: {speedup:.0f}x (target >= {SPEEDUP_TARGET:.0f}x)"
        + "\nfleet throughput: "
        f"{trial_years_per_second(MEMBERS, YEARS, fleet_seconds):,.0f} trial-yr/s"
        + f"\n3-epoch demo: {len(demo_timeline.epochs)} epochs, "
        f"loss fraction {demo.tally.loss_fraction:.3f}, "
        f"final cost ${demo_cost[-1]:,.0f}/member"
        + f"\nartifact: {ARTIFACT}",
    )

    # The fleet must deliver the speed...
    assert speedup >= SPEEDUP_TARGET
    # ...and reproduce the point estimators on a stationary timeline
    # (CI overlap against both the batch estimator and the event loop).
    assert intervals_overlap(fleet_low, fleet_high, ref_low, ref_high)
    assert intervals_overlap(fleet_low, fleet_high, event_low, event_high)
    # The demo timeline actually exercises the non-stationary machinery.
    assert len(demo_timeline.epochs) >= 3
    assert demo_survival[0] == 1.0
    assert np.all(np.diff(demo_survival) <= 0)
    assert np.all(np.diff(demo_cost) >= 0)
    # Kryder decline: later generations refresh cheaper.
    fresh_costs = [
        epoch.annual_cost_per_member
        for epoch in demo_timeline.epochs
        if epoch.label.endswith("fresh")
    ]
    assert fresh_costs == sorted(fresh_costs, reverse=True)


@pytest.mark.benchmark(group="e17 fleet timeline simulator")
def test_bench_e17_fleet_telemetry(experiment_printer, tmp_path):
    """The stationary fleet with the flight recorder on.

    Telemetry must observe, not perturb: the traced answer matches the
    plain one bit-for-bit, the engine spans account for >= 95% of a
    large cold run's wall time, and the chunk cache goes all-miss ->
    all-hit on repeat.
    """
    scenario = study.Scenario(
        question="fleet_survival",
        timeline=stationary_timeline(MODEL, YEARS),
        members=MEMBERS,
        policy=study.EstimatorPolicy(engine="fleet", seed=17),
    )
    plain = study.run(scenario)

    TRACE_ARTIFACT.unlink(missing_ok=True)
    cache_dir = tmp_path / "chunks"
    runs = []
    for label in ("cold", "warm"):
        tel = obs.Telemetry(trace=obs.TraceWriter(TRACE_ARTIFACT))
        try:
            result = study.run(scenario, cache_dir=cache_dir, telemetry=tel)
        finally:
            tel.trace.close()
        runs.append((label, result, tel.snapshot()))

    records = obs.validate_trace(TRACE_ARTIFACT)
    summary = obs.summarize_trace(TRACE_ARTIFACT)

    def span_coverage(result, snapshot):
        covered = sum(
            snapshot.spans[name][1]
            for name in ("setup", "kernel", "merge")
            if name in snapshot.spans
        )
        return covered / result.wall_time_seconds

    coverage = [
        (label, span_coverage(result, snapshot))
        for label, result, snapshot in runs
    ]
    large = replace(scenario, members=COVERAGE_MEMBERS)
    tel = obs.Telemetry()
    coverage.append(
        (
            f"cold {COVERAGE_MEMBERS:,}-member",
            span_coverage(study.run(large, telemetry=tel), tel.snapshot()),
        )
    )

    experiment_printer(
        "E17 telemetry: flight-recorded fleet run "
        f"({MEMBERS} members x {YEARS:g} years)",
        f"trace: {records} records -> {TRACE_ARTIFACT}\n"
        + "\n".join(
            f"{label} span coverage: {share:.1%}"
            for label, share in coverage
        )
        + f"\ncache: {summary['cache']['misses']} misses, "
        f"{summary['cache']['hits']} hits, "
        f"{summary['cache']['stores']} stores"
        + "\n" + obs.render(summary),
    )

    # Observation must not change the answer.
    for _, result, _ in runs:
        assert result.value == plain.value
        assert result.std_error == plain.std_error
        assert result.trials == plain.trials
    # The spans must explain where the time went.  The 95% floor binds
    # on the large cold run, where the kernel does real work; the warm
    # run is a few milliseconds of cache reads, so the facade's fixed
    # overhead (hashing, events, snapshotting) legitimately claims a
    # bigger share — half is still spans.
    assert coverage[2][1] >= SPAN_COVERAGE_TARGET, coverage[2]
    assert coverage[1][1] >= 0.5, coverage[1]
    # The chunk cache flips all-miss -> all-hit between the two runs.
    chunks = runs[0][2].counters["fleet.chunks"]
    assert runs[0][2].counters["cache.fleet.miss"] == chunks
    assert runs[0][2].counters["cache.fleet.store"] == chunks
    assert "cache.fleet.hit" not in runs[0][2].counters
    assert runs[1][2].counters["cache.fleet.hit"] == chunks
    assert "cache.fleet.miss" not in runs[1][2].counters
    # Both study runs landed in one valid, append-ordered trace.
    assert summary["events"]["study_start"] == 2
    assert summary["events"]["study_end"] == 2
