#!/usr/bin/env python3
"""Plan a photo-sharing archive's replication and audit strategy.

The paper's introduction motivates the model with consumer web services
(e-mail, photo sharing, web archives) that promise to keep data forever
on a tight budget.  This example plays the role of such a service's
storage architect:

1. Size the collection and the budget.
2. Compare candidate designs: enterprise RAID in one data centre,
   consumer-drive mirrors across two sites, and three-way consumer
   replication with cross-site auditing.
3. For the chosen design, pick the audit rate that hits a 50-year
   durability target and check the audit bandwidth is feasible.

Run with::

    python examples/photo_archive_planning.py

``REPRO_EXAMPLE_SCALE`` (a multiplier in (0, 1], used by the CI smoke
job) shrinks the Monte-Carlo budgets proportionally.

This walkthrough compares three hand-picked designs; to have the
``repro.optimize`` planner search the whole design space and read the
answer off a cost-reliability Pareto frontier instead, see
``examples/plan_archive_budget.py``.
"""

import os

from repro import study
from repro.analysis.tables import format_dict, format_table
from repro.audit.policies import audits_needed_for_target_mttdl, periodic_schedule, detection_latency
from repro.audit.online_offline import audit_bandwidth_fraction
from repro.core.mttdl import mirrored_mttdl
from repro.core.parameters import FaultModel
from repro.core.probability import mttdl_for_loss_probability, probability_of_loss
from repro.core.replication import replicated_mttdl
from repro.core.units import HOURS_PER_YEAR, years_to_hours
from repro.storage.costs import cost_model_for_drive, replication_cost
from repro.storage.drives import BARRACUDA_ST3200822A, CHEETAH_15K4
from repro.storage.raid import raid_with_latent_faults_mttdl
from repro.storage.site import assess_independence, diversified_placement, single_site_placement

#: The collection: 200 TB of customer photos that must survive 50 years
#: with at most a 1% chance of loss.
COLLECTION_TB = 200.0
MISSION_YEARS = 50.0
MAX_LOSS_PROBABILITY = 0.01


def durability_target() -> float:
    """MTTDL (hours) needed to meet the mission requirement."""
    target = mttdl_for_loss_probability(
        MAX_LOSS_PROBABILITY, years_to_hours(MISSION_YEARS)
    )
    print(
        f"Target: P(loss) <= {MAX_LOSS_PROBABILITY:.0%} over {MISSION_YEARS:.0f} years"
        f"  =>  MTTDL >= {target / HOURS_PER_YEAR:,.0f} years\n"
    )
    return target


def candidate_designs(target_hours: float) -> None:
    """Evaluate the three candidate designs against the target."""
    # Design A: one data centre, enterprise drives in RAID-5, no scrubbing.
    raid_mttdl = raid_with_latent_faults_mttdl(
        disk_mttf=CHEETAH_15K4.mttf_hours,
        disk_mttr=24.0,
        disks=8,
        latent_mttf=CHEETAH_15K4.mttf_hours / 5.0,
    )

    # Design B: mirrored consumer drives at two independent sites,
    # scrubbed monthly.
    two_site_alpha = assess_independence(diversified_placement(2)).effective_alpha
    mirror_model = FaultModel(
        mean_time_to_visible=BARRACUDA_ST3200822A.mttf_hours,
        mean_time_to_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,
        mean_repair_visible=6.0,
        mean_repair_latent=6.0,
        mean_detect_latent=HOURS_PER_YEAR / 12.0 / 2.0,
        correlation_factor=two_site_alpha,
    )
    mirror_mttdl = mirrored_mttdl(mirror_model)

    # Design C: three consumer replicas crammed into one machine room
    # (replication without independence).
    colocated_alpha = assess_independence(single_site_placement(3)).effective_alpha
    colocated_mttdl = replicated_mttdl(
        mean_time_to_fault=1.0 / (
            1.0 / BARRACUDA_ST3200822A.mttf_hours
            + 5.0 / BARRACUDA_ST3200822A.mttf_hours
        ),
        mean_repair_time=6.0,
        replicas=3,
        correlation_factor=colocated_alpha,
    )

    rows = []
    for name, mttdl in (
        ("A: single-site enterprise RAID-5 (no scrub)", raid_mttdl),
        ("B: 2-site consumer mirror, monthly scrub", mirror_mttdl),
        ("C: 3 co-located consumer replicas", colocated_mttdl),
    ):
        rows.append(
            [
                name,
                mttdl / HOURS_PER_YEAR,
                probability_of_loss(mttdl, years_to_hours(MISSION_YEARS)),
                "yes" if mttdl >= target_hours else "no",
            ]
        )
    print(
        format_table(
            ["design", "MTTDL (yr)", "P(loss, 50 yr)", "meets target"], rows
        )
    )
    print(
        "\nThe two-site scrubbed mirror comes closest: independence plus detection\n"
        "beats both single-site redundancy and co-located replication.  It still\n"
        "misses the 1% target at a monthly scrub — the next section computes the\n"
        "audit rate that closes the gap.\n"
    )


def audit_planning() -> None:
    """How often must design B audit, and can the drives sustain it?"""
    two_site_alpha = assess_independence(diversified_placement(2)).effective_alpha
    base = FaultModel(
        mean_time_to_visible=BARRACUDA_ST3200822A.mttf_hours,
        mean_time_to_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,
        mean_repair_visible=6.0,
        mean_repair_latent=6.0,
        mean_detect_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,  # start unscrubbed
        correlation_factor=two_site_alpha,
    )
    target_years = mttdl_for_loss_probability(
        MAX_LOSS_PROBABILITY, MISSION_YEARS * HOURS_PER_YEAR
    ) / HOURS_PER_YEAR
    needed = audits_needed_for_target_mttdl(base, target_years)
    if needed is None:
        print("No audit rate can reach the target with this hardware.")
        return
    schedule = periodic_schedule(max(needed, 0.1))
    bandwidth_share = audit_bandwidth_fraction(
        capacity_gb=BARRACUDA_ST3200822A.capacity_gb,
        bandwidth_mb_s=BARRACUDA_ST3200822A.sustained_bandwidth_mb_s,
        audits_per_year=max(needed, 0.1),
    )
    print(
        format_dict(
            {
                "audits per replica per year": needed,
                "mean detection delay (hours)": detection_latency(schedule),
                "share of drive bandwidth used": bandwidth_share,
            },
            title="audit plan for design B",
        )
    )
    print(
        "\nEven a comfortable margin above the required audit rate consumes well\n"
        "under 1% of the drives' bandwidth — frequent auditing is cheap on-line."
    )


def verify_by_simulation() -> None:
    """Check design B's closed-form promise with the simulator.

    This is a *realistic* (uncompressed-time) operating point: drive
    lifetimes in the hundreds of thousands of hours, a 50-year mission.
    Standard Monte-Carlo censors essentially every trial here — a few
    thousand trials typically observe zero losses, which is exactly the
    regime PR 3's rare-event machinery exists for: ``method="is"``
    accelerates second faults inside windows of vulnerability and
    reweights by exact likelihood ratios, so the same trial budget
    resolves the loss probability with a real confidence interval.
    """
    two_site_alpha = assess_independence(diversified_placement(2)).effective_alpha
    model = FaultModel(
        mean_time_to_visible=BARRACUDA_ST3200822A.mttf_hours,
        mean_time_to_latent=BARRACUDA_ST3200822A.mttf_hours / 5.0,
        mean_repair_visible=6.0,
        mean_repair_latent=6.0,
        mean_detect_latent=HOURS_PER_YEAR / 365.0 / 2.0,  # daily audits
        correlation_factor=two_site_alpha,
    )
    trials = max(
        200, int(4000 * float(os.environ.get("REPRO_EXAMPLE_SCALE", "1.0")))
    )

    def loss_probability(**policy) -> study.StudyResult:
        return study.run(
            study.Scenario(
                question="loss_probability",
                system=study.SystemSpec(model=model),
                mission_years=MISSION_YEARS,
                policy=study.EstimatorPolicy(trials=trials, seed=7, **policy),
            )
        )

    standard = loss_probability(engine="batch")
    weighted = loss_probability(engine="is", target_relative_error=0.1)
    print(
        "\n"
        + format_dict(
            {
                f"standard losses in {trials} trials": standard.losses,
                "standard estimate": standard.value,
                "IS estimate": weighted.value,
                "IS 95% CI": f"[{weighted.ci_low:.3g}, {weighted.ci_high:.3g}]",
                "IS trials": weighted.trials,
                "IS effective sample size": weighted.effective_sample_size,
            },
            title="design B, 50-year loss probability by simulation",
        )
    )
    print(
        "\nStandard Monte-Carlo sees (almost) no losses at this budget — the\n"
        "operating point is simply too reliable — while importance sampling\n"
        "pins the loss probability with a tight interval from the same budget."
    )


def cost_summary() -> None:
    """Annualised cost of the chosen design."""
    breakdown = replication_cost(
        cost_model_for_drive(BARRACUDA_ST3200822A, site_cost_per_year=20000.0),
        dataset_tb=COLLECTION_TB,
        replicas=2,
        audits_per_replica_year=12.0,
        expected_repairs_per_replica_year=HOURS_PER_YEAR
        / BARRACUDA_ST3200822A.mttf_hours,
        independent_sites=2,
    )
    print("\n" + format_dict(breakdown.as_dict(), title="design B annual cost (USD)"))


def main() -> None:
    target = durability_target()
    candidate_designs(target)
    audit_planning()
    verify_by_simulation()
    cost_summary()


if __name__ == "__main__":
    main()
