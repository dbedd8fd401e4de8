"""Seeded inputs for the four benchmark workloads.

Every generator takes the benchmark seed and returns plain data: the
Scenario JSON payloads (or, for fleets, the timelines built through the
public ``generation_refresh_timeline`` constructor) that the program
under test receives.  The same seed always yields the same inputs.

Each question set has a fixed design: the number of questions of each
kind (engine x question x operating point, request kind) is the same
for every seed.  The seed draws everything else -- the parameters of
exact questions, every estimator and fleet seed, the planner's queries,
the serve arrival times, the order.  That keeps the work per pass
nearly constant from seed to seed, so the spread of a timing across
seeds measures the program and the host, not the luck of the draw.

Monte-Carlo answers are checked against committed high-effort
references (``reference.json``), so their operating points come from
the finite grids below; exact answers are checked against formulas the
benchmark evaluates itself, so their parameters are drawn freely.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Optional, Sequence, Tuple

#: The paper's mirrored Cheetah pair (hours): MV, ML, MRV = MRL.
MV = 1.4e6
ML = 2.8e5
MR = 1.0 / 3.0

MISSION_YEARS = 50.0

#: Monte-Carlo operating points with committed references: (MDL hours,
#: alpha, replicas, (n, k) or None).
LOSS_POINTS: Tuple[Tuple[float, float, int, Optional[Tuple[int, int]]], ...] = (
    tuple((mdl, alpha, 2, None) for mdl in (12.0, 48.0, 168.0, 730.0, 1460.0)
          for alpha in (1.0, 0.1))
    + tuple((mdl, alpha, 3, None) for mdl in (168.0, 1460.0)
            for alpha in (1.0, 0.1))
    + tuple((mdl, 1.0, 6, (6, 4)) for mdl in (168.0, 1460.0))
)
MTTDL_POINTS: Tuple[Tuple[float, float, int, Optional[Tuple[int, int]]], ...] = (
    (1460.0, 1.0, 2, None),
    (730.0, 0.5, 2, None),
)
#: Censoring horizon of the MTTDL questions (~2.7 MTTDLs): the lock-step
#: kernel otherwise runs until its slowest trial loses data, a cost that
#: swings with the estimator seed.
MTTDL_MAX_TIME = 6.0e7

#: Trials per Monte-Carlo chunk for every point question.
TRIALS = 2000

#: Target relative errors of the Monte-Carlo questions.
TARGETS = (0.05, 0.075, 0.1)

#: Exact question groups of the estimate workload: (engine, question,
#: count); their parameters are drawn from the seed.
EXACT_SLOTS = (
    ("analytic", "loss_probability", 10),
    ("analytic", "mttdl", 10),
    ("markov", "mttdl", 10),
    ("markov", "loss_probability", 10),
)

#: Smallest reference loss probability a plain batch question is asked
#: at, so the adaptive loop reaches a 5% target inside its default cap.
BATCH_MIN_LOSS = 0.01


def point_key(question: str, mdl: float, alpha: float, replicas: int,
              scheme: Optional[Tuple[int, int]],
              mission: float = MISSION_YEARS) -> str:
    """The reference-table key of one Monte-Carlo operating point."""
    nk = f"{scheme[0]},{scheme[1]}" if scheme else "-"
    return (f"{question}|mdl={mdl:g}|alpha={alpha:g}|r={replicas}|nk={nk}"
            f"|mission={mission:g}")


def system_payload(mdl: float, alpha: float, replicas: int = 2,
                   scheme: Optional[Tuple[int, int]] = None,
                   mv: float = MV, ml: float = ML) -> Dict[str, object]:
    payload: Dict[str, object] = {
        "model": {"MV": mv, "ML": ml, "MRV": MR, "MRL": MR, "MDL": mdl,
                  "alpha": alpha},
        "replicas": replicas,
        "audits_per_year": None,
    }
    if scheme is not None:
        payload["scheme"] = {"n": scheme[0], "k": scheme[1]}
    return payload


def point_scenario(question: str, system: Dict[str, object], engine: str,
                   seed: int, mission: float = MISSION_YEARS,
                   target: Optional[float] = None, trials: int = TRIALS,
                   variance_reduction: str = "none",
                   label: Optional[str] = None,
                   max_time: Optional[float] = None) -> Dict[str, object]:
    """A point-question Scenario payload in the public wire format."""
    policy: Dict[str, object] = {
        "engine": engine, "trials": trials, "max_trials": None,
        "target_relative_error": target, "seed": seed, "bias": None,
        "cross_check": True,
    }
    if variance_reduction != "none":
        policy["variance_reduction"] = variance_reduction
    return {"question": question, "label": label, "system": system,
            "mission_years": mission, "max_time_hours": max_time,
            "policy": policy}


def _log_uniform(rng: random.Random, low: float, high: float) -> float:
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def exact_question(rng: random.Random, engine: str,
                   question: str) -> Dict[str, object]:
    """A mirrored-pair question with freely drawn parameters."""
    system = system_payload(
        mdl=_log_uniform(rng, 12.0, 1460.0),
        alpha=_log_uniform(rng, 0.1, 1.0),
        mv=MV * _log_uniform(rng, 0.5, 2.0),
        ml=ML * _log_uniform(rng, 0.5, 2.0),
    )
    mission = rng.choice((10.0, 25.0, 50.0, 100.0))
    return point_scenario(question, system, engine, seed=0, mission=mission)


def _batch_points(reference: Dict[str, Dict[str, float]]):
    return [p for p in LOSS_POINTS
            if reference[point_key("loss_probability", *p)]["value"]
            >= BATCH_MIN_LOSS]


def monte_carlo_design(reference: Dict[str, Dict[str, float]]):
    """The estimate workload's Monte-Carlo questions as a fixed design.

    ``(engine, variance_reduction, question, point, target)`` rows: every
    grid point under importance sampling and ``auto``, the points plain
    batch sampling can reach at both ends of the target range, every
    mirrored point under the control variate, and one MTTDL per
    engine.  The design does not depend on the seed, so the work per
    pass stays comparable across seeds; the seed draws each question's
    estimator seed and the order.
    """
    rows = []
    for index, point in enumerate(LOSS_POINTS):
        rows.append(("is", "none", "loss_probability", point,
                     TARGETS[index % 3]))
        rows.append(("auto", "none", "loss_probability", point,
                     TARGETS[(index + 1) % 3]))
    for point in _batch_points(reference):
        for target in (TARGETS[0], TARGETS[-1]):
            rows.append(("batch", "none", "loss_probability", point, target))
    for point in LOSS_POINTS:
        if point[2] == 2 and point[3] is None:
            for target in (TARGETS[0], TARGETS[-1]):
                rows.append(("batch", "cv", "loss_probability", point, target))
    rows.append(("batch", "none", "mttdl", MTTDL_POINTS[0], TARGETS[0]))
    rows.append(("auto", "none", "mttdl", MTTDL_POINTS[1], TARGETS[0]))
    return rows


def estimate_questions(seed: int, reference: Dict[str, Dict[str, float]]
                       ) -> List[Dict[str, object]]:
    """The estimate workload: >= 100 point questions, shuffled."""
    rng = random.Random(f"estimate-{seed}")
    questions: List[Dict[str, object]] = []
    for engine, question, count in EXACT_SLOTS:
        questions += [exact_question(rng, engine, question)
                      for _ in range(count)]
    for engine, reduction, question, point, target in monte_carlo_design(
            reference):
        questions.append(point_scenario(
            question, system_payload(*point), engine,
            seed=rng.randrange(2 ** 31), target=target,
            variance_reduction=reduction,
            label=point_key(question, *point),
            max_time=MTTDL_MAX_TIME if question == "mttdl" else None))
    rng.shuffle(questions)
    return questions


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------

#: Fleet plans with committed reference loss fractions: (name, medium,
#: refresh years, replicas, audits/year, migration year or None).
FLEET_PLANS: Tuple[Tuple[str, str, float, int, float, Optional[float]], ...] = (
    ("cheetah-15y-raw20", "drive:cheetah", 15.0, 2, 12.0, 20.0),
    ("barracuda-10y", "drive:barracuda", 10.0, 2, 4.0, None),
    ("cheetah-3x-raw30", "drive:cheetah", 15.0, 3, 12.0, 30.0),
)

FLEET_MEMBERS = 20_000
FLEET_YEARS = 50.0
#: Fleets per plan in one pass, each with its own seed.  A fleet's cost
#: follows its Poisson shock count (every chunk replays every shock), so
#: one realization per plan makes the work per pass swing with the seed;
#: three realizations of a smaller fleet average that out.
FLEET_REALIZATIONS = 3


def fleet_timeline(name: str):
    """Build one of :data:`FLEET_PLANS` through the public constructors."""
    from repro.core.migration import CAMERA_RAW
    from repro.fleet import (MigrationEvent, RegionalShockModel,
                             generation_refresh_timeline)

    _, medium, refresh, replicas, audits, migration = next(
        plan for plan in FLEET_PLANS if plan[0] == name)
    return generation_refresh_timeline(
        medium=medium,
        years=FLEET_YEARS,
        refresh_every_years=refresh,
        replicas=replicas,
        audits_per_year=audits,
        shocks=RegionalShockModel(rate_per_year=0.1, regions=4,
                                  replica_penetration=0.2),
        migrations=(
            [MigrationEvent(year=migration, risk=CAMERA_RAW,
                            cost_per_member=350.0, label="retire RAW")]
            if migration is not None else []
        ),
        label=name,
    )


def fleet_questions(seed: int, members: int = FLEET_MEMBERS,
                    realizations: int = FLEET_REALIZATIONS):
    """The fleet workload: every plan ``realizations`` times, each with
    its own seed, in seeded order."""
    from repro.study import EstimatorPolicy, Scenario

    rng = random.Random(f"fleet-{seed}")
    names = [plan[0] for plan in FLEET_PLANS] * realizations
    rng.shuffle(names)
    return [
        Scenario(question="fleet_survival", timeline=fleet_timeline(name),
                 members=members, label=name,
                 policy=EstimatorPolicy(engine="fleet",
                                        seed=rng.randrange(2 ** 31)))
        for name in names
    ]


# ---------------------------------------------------------------------------
# planner
# ---------------------------------------------------------------------------

#: The default design space plus two erasure schemes: 120 candidates.
PLANNER_SPACE: Dict[str, object] = {
    "dataset_tb": 10.0,
    "media": ["drive:barracuda", "drive:cheetah", "media:tape"],
    "replica_counts": [2, 3, 4],
    "audit_rates": [0.0, 1.0, 12.0, 52.0],
    "placements": ["single", "multi"],
    "site_cost_per_year": 0.0,
    "erasure_schemes": ["6,4", "9,6"],
}
PLANNER_QUESTIONS = 4


def planner_questions(seed: int) -> List[Dict[str, object]]:
    """The planner workload: budget and target queries over one space."""
    rng = random.Random(f"planner-{seed}")
    questions = []
    for slot in range(PLANNER_QUESTIONS):
        budget = target = None
        if slot % 2 == 0:
            budget = round(_log_uniform(rng, 3000.0, 30000.0), 2)
        else:
            target = rng.choice((1e-2, 3e-3, 1e-3))
        questions.append({
            "question": "frontier", "label": f"planner-{slot}",
            "space": PLANNER_SPACE, "budget": budget, "target_loss": target,
            "mission_years": MISSION_YEARS,
            "policy": {"engine": "auto", "trials": TRIALS,
                       "seed": rng.randrange(2 ** 31)},
        })
    return questions


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------

#: Offered load of the open loop (requests per second).  At 100 the
#: host's slow periods turned into queueing, which moved p90 by more
#: than the host factor the benchmark divides out.
SERVE_RATE = 70.0
#: Shares of the request stream (the rest are repeats of primed
#: questions, answered from the store).
SERVE_NEW_EXACT = 0.14
SERVE_NEW_MC = 0.015
SERVE_STALE = 0.0025
#: Requests that arrive as identical pairs (a new Monte-Carlo question
#: asked twice at once): the second shares the first's in-flight run.
SERVE_DUPLICATE = 0.005
#: Trials of a duplicated question: the twin arrives within the 2 ms
#: batching window, so a short run still shares, and stalls both
#: connections for less time than a family does.
SERVE_DUPLICATE_TRIALS = 2_500
#: Primed questions: exact and Monte-Carlo halves.
SERVE_HOT_EXACT = 20
SERVE_HOT_MC = 20
#: Trials of a new batchable Monte-Carlo question; a family of this many
#: missions arrives together, so the batching queue can group it.
SERVE_MC_TRIALS = 5_000
SERVE_FAMILY = 2


def _serve_mc_points(reference: Dict[str, Dict[str, float]]):
    return [p for p in _batch_points(reference)
            if p[2] == 2 and p[3] is None]


def serve_plan(seed: int, seconds: float,
               reference: Dict[str, Dict[str, float]],
               rate: float = SERVE_RATE):
    """The primed hot set and the open-loop request schedule.

    Returns ``(hot, schedule)``: ``hot`` is the list of Scenario payloads
    primed before measuring; ``schedule`` is a list of
    ``(due_seconds, kind, payload)`` with ``kind`` one of ``hit``,
    ``exact``, ``mc``, ``stale`` or ``duplicate`` -- what the answer's
    origin should be.  The count of each kind is fixed by ``seconds``
    and ``rate``; the seed draws the questions, their order and the
    Poisson arrival times.
    """
    rng = random.Random(f"serve-{seed}")
    points = _serve_mc_points(reference)
    hot = [exact_question(rng, rng.choice(("analytic", "markov")),
                          rng.choice(("mttdl", "loss_probability")))
           for _ in range(SERVE_HOT_EXACT)]
    # Distinct (point, mission) pairs, so every primed Monte-Carlo
    # question has its own store entry.
    pairs = [(point, mission) for point in points
             for mission in (10.0, 20.0, 30.0, 40.0, 50.0)]
    primed = rng.sample(pairs, SERVE_HOT_MC)
    hot_mc = [
        point_scenario("loss_probability", system_payload(*point), "batch",
                       seed=rng.randrange(2 ** 31), mission=mission,
                       label=point_key("loss_probability", *point, mission))
        for point, mission in primed
    ]
    hot += hot_mc
    # The store keys a question by point and mission (not by seed or
    # trials), so a new Monte-Carlo question draws its mission again
    # until that pair has not been asked yet.
    asked = set(primed)

    def new_mission(point, low: float, high: float) -> float:
        while True:
            mission = round(rng.uniform(low, high), 3)
            if (point, mission) not in asked:
                asked.add((point, mission))
                return mission

    count = int(seconds * rate)
    families = round(count * SERVE_NEW_MC / SERVE_FAMILY)
    exact = round(count * SERVE_NEW_EXACT)
    stale = min(len(hot_mc), round(count * SERVE_STALE))
    duplicates = round(count * SERVE_DUPLICATE / 2)
    slots = (["mc"] * families + ["exact"] * exact + ["stale"] * stale
             + ["duplicate"] * duplicates
             + ["hit"] * (count - families * SERVE_FAMILY - exact - stale
                          - 2 * duplicates))
    rng.shuffle(slots)
    stale_left = list(hot_mc)
    rng.shuffle(stale_left)
    # Monte-Carlo runs cost differently per point, so every run asks
    # each point equally often (in seeded order): the seed moves when the
    # slow requests come, not how slow they are.
    family_points = _balanced(rng, points, families)
    duplicate_points = _balanced(rng, points, duplicates)
    schedule = []
    t = 0.0
    for kind in slots:
        t += rng.expovariate(rate)
        if kind == "mc":
            # A family of missions for one system: the batching queue's
            # unit of work.  Missions are drawn, not fixed, so every
            # member asks a question the store has not seen.
            point = family_points.pop()
            family_seed = rng.randrange(2 ** 31)
            mission = 20.0
            for _ in range(SERVE_FAMILY):
                mission = new_mission(point, mission + 2.0, mission + 8.0)
                schedule.append((t, "mc", point_scenario(
                    "loss_probability", system_payload(*point), "batch",
                    seed=family_seed, mission=mission,
                    trials=SERVE_MC_TRIALS)))
        elif kind == "duplicate":
            point = duplicate_points.pop()
            payload = point_scenario(
                "loss_probability", system_payload(*point),
                "batch", seed=rng.randrange(2 ** 31),
                mission=new_mission(point, 25.0, 35.0),
                trials=SERVE_DUPLICATE_TRIALS)
            schedule += [(t, "duplicate", payload)] * 2
        elif kind == "exact":
            schedule.append((t, "exact", exact_question(
                rng, rng.choice(("analytic", "markov")),
                rng.choice(("mttdl", "loss_probability")))))
        elif kind == "stale":
            # Demand 0.6x the binomial relative error the primed answer
            # reaches at the reference loss probability (scaled to its
            # mission), so the store reports stale and the engine
            # recomputes and overwrites the entry.
            base = stale_left.pop()
            p50 = reference[point_key("loss_probability", *_point_of(base))][
                "value"]
            p = 1.0 - (1.0 - p50) ** (base["mission_years"] / MISSION_YEARS)
            primed = math.sqrt((1.0 - p) / (p * TRIALS))
            payload = dict(base)
            payload["policy"] = dict(
                base["policy"], target_relative_error=round(0.6 * primed, 4))
            schedule.append((t, "stale", payload))
        else:
            schedule.append((t, "hit", rng.choice(hot)))
    # Stretch the arrivals so the last is due at ``seconds``: the offered
    # rate is exact, the spacing stays random.
    stretch = seconds / schedule[-1][0]
    return hot, [(due * stretch, kind, payload)
                 for due, kind, payload in schedule]


def _balanced(rng: random.Random, items: Sequence, count: int) -> List:
    """``count`` items, each of ``items`` as often as possible, shuffled."""
    chosen = [items[i % len(items)] for i in range(count)]
    rng.shuffle(chosen)
    return chosen


def _point_of(payload: Dict[str, object]):
    system = payload["system"]
    scheme = system.get("scheme")
    return (system["model"]["MDL"], system["model"]["alpha"],
            system["replicas"], (scheme["n"], scheme["k"]) if scheme else None)
