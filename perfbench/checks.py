"""Answer checks: every answer the benchmark times is also verified.

A check returns ``None`` for a correct answer and a one-line reason
otherwise; the runner counts every non-``None`` as a failed answer.

* Exact engines (``analytic`` / ``markov``) must match the paper's
  closed form (Eq. 7/8 with capped windows) or the mirrored-pair CTMC,
  both evaluated here, independently of the program.
* A Monte-Carlo answer must reach the relative error it was asked for
  and lie within :data:`SE_TOLERANCE` combined standard errors of the
  committed high-effort reference for its operating point.  References
  are runs of the simulator itself (``make_reference.py``), not the
  CTMC: the two models differ measurably at large MDL.
* A fleet answer must sit inside the committed spread of its plan's
  loss fraction, and its survival curve must never increase.
* A frontier must be Pareto-valid under CI-aware dominance, and the
  recommendation must be the frontier design the query asks for.
* A served answer must equal what ``study.run`` returns for the
  scenario that produced it (within combined SE for batched members
  that are not bit-identical to a solo run).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

HOURS_PER_YEAR = 8760.0

#: Combined standard errors a Monte-Carlo answer may sit from its
#: reference.  Wide enough that a calibrated estimator fails with
#: probability ~1e-6 per answer, narrow enough to catch real bias.
SE_TOLERANCE = 5.0

#: Relative tolerance for answers the benchmark recomputes exactly.
EXACT_RTOL = 1e-9


def _model(payload: Dict[str, object]):
    m = payload["system"]["model"]
    return (float(m["MV"]), float(m["ML"]), float(m["MRV"]), float(m["MRL"]),
            float(m["MDL"]), float(m["alpha"]))


def paper_mttdl(mv, ml, mrv, mrl, mdl, alpha) -> float:
    """The paper's mirrored-pair MTTDL: Eq. 7 with windows capped at 1."""
    p_visible = min(mrv / (alpha * mv) + mrv / (alpha * ml), 1.0)
    latent_window = mdl + mrl
    p_latent = min(latent_window / (alpha * mv) + latent_window / (alpha * ml),
                   1.0)
    return 1.0 / (p_visible / mv + p_latent / ml)


def ctmc_mttdl(mv, ml, mrv, mrl, mdl, alpha) -> float:
    """Mean time to absorption of the mirrored-pair CTMC (either copy
    may fault first; the survivor's rates are divided by alpha)."""
    lv, ll = 1.0 / mv, 1.0 / ml
    second = (lv + ll) / alpha
    # transient states: healthy, one visible, latent undetected,
    # latent detected
    q = np.zeros((4, 4))
    q[0, 1], q[0, 2] = 2 * lv, 2 * ll
    q[1, 0] = 1.0 / mrv
    q[2, 3] = 1.0 / mdl
    q[3, 0] = 1.0 / mrl
    exits = q.sum(axis=1) + np.array([0.0, second, second, second])
    q -= np.diag(exits)
    times = np.linalg.solve(-q, np.ones(4))
    return float(times[0])


def loss_from_mttdl(mttdl_hours: float, mission_years: float) -> float:
    return -math.expm1(-mission_years * HOURS_PER_YEAR / mttdl_hours)


def _close(a: float, b: float, rtol: float = EXACT_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_point(payload: Dict[str, object], result: Dict[str, object],
                reference: Dict[str, Dict[str, float]]) -> Optional[str]:
    """Check one ``mttdl`` / ``loss_probability`` answer."""
    value = result.get("value")
    if value is None or not math.isfinite(value):
        return f"no finite value ({value!r})"
    policy = payload["policy"]
    engine = policy["engine"]
    question = payload["question"]
    mission = float(payload["mission_years"])
    if engine in ("analytic", "markov"):
        solver = paper_mttdl if engine == "analytic" else ctmc_mttdl
        mttdl = solver(*_model(payload))
        want = mttdl if question == "mttdl" else loss_from_mttdl(mttdl, mission)
        if not _close(value, want):
            return f"{engine} {question} {value!r} != {want!r}"
        return None
    se = result.get("std_error")
    if se is None or not math.isfinite(se) or se < 0:
        return f"no finite standard error ({se!r})"
    target = policy.get("target_relative_error")
    if target is not None and se > target * abs(value) * (1 + 1e-9):
        return f"relative error {se / abs(value):.4f} misses target {target}"
    ref = reference.get(payload.get("label") or "")
    if ref is None:
        return None
    allowed = SE_TOLERANCE * math.hypot(se, ref["std_error"])
    if abs(value - ref["value"]) > allowed:
        return (f"{value:.6g} +- {se:.3g} is "
                f"{abs(value - ref['value']) / math.hypot(se, ref['std_error']):.1f}"
                f" SE from reference {ref['value']:.6g} ({payload['label']})")
    return None


def check_fleet(name: str, result: Dict[str, object],
                reference: Dict[str, Dict[str, float]]) -> Optional[str]:
    """Check one ``fleet_survival`` answer against its plan's spread."""
    value = result.get("value")
    if value is None or not 0.0 <= value <= 1.0:
        return f"loss fraction {value!r} outside [0, 1]"
    curve = result["details"]["survival_curve"]
    if curve[0] != 1.0 or any(b > a for a, b in zip(curve, curve[1:])):
        return "survival curve must start at 1 and never increase"
    if not 1.0 - curve[-1] <= value + 1e-12:
        return "survival curve loses more members than the loss fraction"
    ref = reference[name]
    allowed = SE_TOLERANCE * math.hypot(ref["sd"], result["std_error"] or 0.0)
    if abs(value - ref["mean"]) > allowed:
        return (f"{name}: loss fraction {value:.5f} is outside "
                f"{ref['mean']:.5f} +- {allowed:.5f}")
    return None


def _bounds(row: Dict[str, object]):
    sim = row.get("simulated")
    if sim:
        return sim["mean"], sim["ci_low"], sim["ci_high"]
    loss = row["analytic_loss_probability"]
    return loss, loss, loss


def _dominates(a: Dict[str, object], b: Dict[str, object]) -> bool:
    _, _, a_high = _bounds(a)
    _, b_low, _ = _bounds(b)
    if a["annual_cost"] > b["annual_cost"] or a_high > b_low:
        return False
    return a["annual_cost"] < b["annual_cost"] or a_high < b_low


def check_frontier(payload: Dict[str, object],
                   result: Dict[str, object]) -> Optional[str]:
    """Check a ``frontier`` answer for Pareto validity and the query."""
    frontier = result["details"]["frontier"]
    if not frontier:
        return "empty frontier"
    costs = [row["annual_cost"] for row in frontier]
    if costs != sorted(costs):
        return "frontier not ordered by annual cost"
    for i, a in enumerate(frontier):
        for j, b in enumerate(frontier):
            if i != j and _dominates(a, b):
                return f"frontier row {i} dominates row {j}"
    chosen = result["details"]["recommended"]
    if chosen is None:
        return "no recommendation"
    if chosen not in frontier:
        return "recommended design is not on the frontier"
    budget, target = payload.get("budget"), payload.get("target_loss")
    feasible = [
        row for row in frontier
        if (budget is None or row["annual_cost"] <= budget)
        and (target is None or _bounds(row)[2] <= target)
    ]
    if chosen not in feasible:
        return "recommended design violates the query's constraints"
    if budget is not None:
        best = min(_bounds(row)[0] for row in feasible)
        if _bounds(chosen)[0] > best:
            return "a feasible frontier design is more reliable"
    else:
        if chosen["annual_cost"] > min(row["annual_cost"] for row in feasible):
            return "a feasible frontier design is cheaper"
    if result["value"] != _bounds(chosen)[0]:
        return "headline value is not the recommended design's loss"
    return None


#: Fields that must agree exactly between a served answer and study.run.
_IDENTICAL = ("question", "engine", "method", "value", "std_error", "ci_low",
              "ci_high", "units", "trials", "losses", "censored")


def check_same_answer(served: Dict[str, object],
                      expected: Dict[str, object]) -> Optional[str]:
    """A served answer against ``study.run`` of its producing scenario."""
    batched = served.get("details", {}).get("batched")
    if batched and not batched.get("bit_identical_to_solo"):
        if served["trials"] != expected["trials"]:
            return "batched answer drew a different trial count"
        combined = math.hypot(served["std_error"], expected["std_error"])
        if abs(served["value"] - expected["value"]) > SE_TOLERANCE * combined:
            return (f"batched answer {served['value']:.6g} is more than "
                    f"{SE_TOLERANCE} SE from study.run {expected['value']:.6g}")
        return None
    for name in _IDENTICAL:
        if served.get(name) != expected.get(name):
            return (f"served {name}={served.get(name)!r} differs from "
                    f"study.run {expected.get(name)!r}")
    return None
