"""Multi-fidelity evaluation of candidate designs.

Evaluation runs in two fidelities:

1. **Analytic screen** — a closed-form loss-probability estimate in
   *simulator-consistent* semantics.  The paper's Eq. 7/8 counts windows
   of vulnerability opened by one replica; the simulators count windows
   opened by *any* replica, so the mirrored loss rate here is twice
   :func:`~repro.core.mttdl.double_fault_rate`, generalised to ``r``
   replicas by chaining successive-fault probabilities with a residual
   window that halves per landed fault (each uniformly-arriving fault
   leaves on average half the remaining overlap for the next one).  The
   screen is cheap enough to run on every candidate and accurate enough
   in the reliable regime to prune dominated designs before simulating.
2. **Monte-Carlo refinement** — the vectorized batch backend
   (:func:`~repro.simulation.estimators.run_loss_probability`)
   with a deterministic per-candidate seed, attaching a confidence
   interval to each screening survivor.  High-reliability candidates
   used to refine to zero-loss point estimates; with the default
   ``method="auto"`` a 2-way candidate (a pair or an ``(n, n-1)`` code)
   is refined by conditional Monte-Carlo
   (:mod:`repro.simulation.variance_reduction`), and any other switches
   to failure-biased importance sampling
   (:mod:`repro.simulation.rare_event`) when the analytic screen or the
   standard pilot expects too few losses, so even deep-frontier
   designs come back with real confidence intervals.  When a
   refinement still observes no losses at all, the interval's upper
   bound falls back to the rule-of-three bound ``3 / trials`` so the
   interval stays meaningful for CI-aware dominance and
   screen-agreement checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional

from repro.core.parameters import FaultModel
from repro.core.probability import probability_of_loss
from repro.core.redundancy import RedundancyScheme
from repro.core.units import years_to_hours
from repro.optimize.space import CandidateDesign
from repro.simulation.estimators import (
    check_method,
    run_loss_probability,
    zero_loss_ci_high,
)
from repro.simulation.rare_event import analytic_loss_rate
from repro.simulation.rng import spawn_seed

#: Multiplicative slack applied to the simulated CI when judging screen
#: agreement.  The screen is a first-order analytic approximation;
#: before rare-event refinement its error hid inside wide Monte-Carlo
#: intervals, but an importance-sampled CI can be tight enough to
#: resolve it, and a screen that is off by a few tens of percent is
#: working as designed, not disagreeing.
SCREEN_AGREEMENT_TOLERANCE = 1.5

#: Version of the recipe :func:`refine` answers by, part of the planner's
#: cache key: 2 since ``auto`` refines threshold-2 candidates by
#: conditional Monte-Carlo, so entries sampled under the old recipe miss.
REFINE_RECIPE = 2

#: Default multiplicative slack for screening survivors: a candidate is
#: pruned when some no-more-expensive candidate's screened loss is at
#: least this factor better.  Slack above 1 keeps near-frontier designs
#: alive so analytic screening error cannot silently drop the true
#: optimum before refinement.
DEFAULT_SCREEN_SLACK = 4.0


@dataclass(frozen=True)
class EvaluationSettings:
    """Shared settings of one optimisation run.

    Attributes:
        mission_years: mission length the loss probability refers to.
        trials: Monte-Carlo trials per refinement (per chunk when
            adaptive sampling is enabled).
        seed: root seed; per-candidate seeds are spawned from it.
        backend: simulation backend for refinement.
        target_relative_error: optional adaptive-sampling target.
        max_trials: optional adaptive-sampling cap.
        method: refinement estimator — ``"auto"`` (default) pilots a
            standard run and switches to importance sampling when the
            candidate is too reliable to observe losses, ``"standard"``
            and ``"is"`` force one estimator.
    """

    mission_years: float = 50.0
    trials: int = 1000
    seed: int = 0
    backend: str = "batch"
    target_relative_error: Optional[float] = None
    max_trials: Optional[int] = None
    method: str = "auto"

    def __post_init__(self) -> None:
        if self.mission_years <= 0:
            raise ValueError("mission_years must be positive")
        if self.trials <= 0:
            raise ValueError("trials must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        check_method(self.method)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mission_years": self.mission_years,
            "trials": self.trials,
            "seed": self.seed,
            "backend": self.backend,
            "target_relative_error": self.target_relative_error,
            "max_trials": self.max_trials,
            "method": self.method,
        }


@dataclass(frozen=True)
class SimulatedLoss:
    """Monte-Carlo loss-probability refinement of one candidate.

    ``method`` records the estimator that actually ran (an ``"auto"``
    refinement resolves to ``"standard"`` or ``"is"``);
    ``effective_sample_size`` carries the Kish ESS of the importance
    weights for weighted refinements, ``None`` otherwise.
    """

    mean: float
    std_error: float
    trials: int
    losses: int
    ci_low: float
    ci_high: float
    seed: int
    method: str = "standard"
    effective_sample_size: Optional[float] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "mean": self.mean,
            "std_error": self.std_error,
            "trials": self.trials,
            "losses": self.losses,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "seed": self.seed,
            "method": self.method,
            "effective_sample_size": self.effective_sample_size,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "SimulatedLoss":
        ess = payload.get("effective_sample_size")
        return SimulatedLoss(
            mean=float(payload["mean"]),
            std_error=float(payload["std_error"]),
            trials=int(payload["trials"]),
            losses=int(payload["losses"]),
            ci_low=float(payload["ci_low"]),
            ci_high=float(payload["ci_high"]),
            seed=int(payload["seed"]),
            method=str(payload.get("method", "standard")),
            effective_sample_size=None if ess is None else float(ess),
        )


@dataclass(frozen=True)
class CandidateEvaluation:
    """A candidate placed on the cost–reliability plane.

    ``simulated`` is ``None`` for screen-only evaluations and carries
    the Monte-Carlo refinement otherwise.
    """

    candidate: CandidateDesign
    annual_cost: float
    analytic_mttdl_hours: float
    analytic_loss_probability: float
    mission_years: float
    simulated: Optional[SimulatedLoss] = None

    @property
    def refined(self) -> bool:
        return self.simulated is not None

    @property
    def loss_probability(self) -> float:
        """Best available loss estimate (simulated when present)."""
        if self.simulated is not None:
            return self.simulated.mean
        return self.analytic_loss_probability

    @property
    def loss_low(self) -> float:
        """Lower confidence bound (the point value when unrefined)."""
        if self.simulated is not None:
            return self.simulated.ci_low
        return self.analytic_loss_probability

    @property
    def loss_high(self) -> float:
        """Upper confidence bound (the point value when unrefined)."""
        if self.simulated is not None:
            return self.simulated.ci_high
        return self.analytic_loss_probability

    @property
    def agrees_with_screen(self) -> Optional[bool]:
        """Whether the analytic screen sits near the simulated loss CI.

        The CI is widened by :data:`SCREEN_AGREEMENT_TOLERANCE` on both
        sides before the check, so a tight importance-sampled interval
        does not flag the screen's expected first-order approximation
        error.  ``None`` until the candidate has been refined.
        """
        if self.simulated is None:
            return None
        return (
            self.loss_low / SCREEN_AGREEMENT_TOLERANCE
            <= self.analytic_loss_probability
            <= self.loss_high * SCREEN_AGREEMENT_TOLERANCE
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "candidate": self.candidate.as_dict(),
            "annual_cost": self.annual_cost,
            "analytic_mttdl_hours": self.analytic_mttdl_hours,
            "analytic_loss_probability": self.analytic_loss_probability,
            "mission_years": self.mission_years,
            "simulated": self.simulated.as_dict() if self.simulated else None,
            "agrees_with_screen": self.agrees_with_screen,
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "CandidateEvaluation":
        simulated = payload.get("simulated")
        return CandidateEvaluation(
            candidate=CandidateDesign.from_dict(payload["candidate"]),
            annual_cost=float(payload["annual_cost"]),
            analytic_mttdl_hours=float(payload["analytic_mttdl_hours"]),
            analytic_loss_probability=float(payload["analytic_loss_probability"]),
            mission_years=float(payload["mission_years"]),
            simulated=SimulatedLoss.from_dict(simulated) if simulated else None,
        )


def screen_loss_rate(
    model: FaultModel,
    replicas: int,
    scheme: Optional[RedundancyScheme] = None,
) -> float:
    """Data-loss rate (per hour) in simulator-consistent semantics.

    Delegates to the single owner of the chained-window formula,
    :func:`repro.simulation.rare_event.analytic_loss_rate`, which the
    rare-event machinery also uses to pick failure-biasing factors.

    A window of vulnerability opens when any of the ``n`` fragments
    faults (rate ``n λ_T`` per fault type); data is lost when the
    faulty count reaches the scheme's loss threshold ``n - k + 1``.
    The ``j``-th successive fault has ``n - j`` candidate fragments,
    each faulting at the correlated rate ``λ_any / α``, into an
    expected residual window of ``W_T / 2^(j-1)`` (each landed fault
    arrives uniformly within the remaining overlap).  Every per-step
    probability is capped at 1, mirroring the paper's treatment of
    windows so long that the linearisation saturates.

    For ``replicas == 2`` (no scheme) this is exactly twice
    :func:`repro.core.mttdl.double_fault_rate` — the factor the paper's
    one-window-owner convention omits and the simulators include.
    """
    if scheme is None and replicas < 2:
        raise ValueError("replicas must be at least 2")
    return analytic_loss_rate(model, replicas, scheme=scheme)


def screen_mttdl_hours(
    model: FaultModel,
    replicas: int,
    scheme: Optional[RedundancyScheme] = None,
) -> float:
    """MTTDL implied by :func:`screen_loss_rate` (``inf`` when lossless)."""
    rate = screen_loss_rate(model, replicas, scheme=scheme)
    if rate <= 0:
        return math.inf
    return 1.0 / rate


def screen(
    candidate: CandidateDesign, settings: EvaluationSettings
) -> CandidateEvaluation:
    """Cheap analytic evaluation of one candidate (no simulation)."""
    model = candidate.fault_model()
    mttdl = screen_mttdl_hours(model, candidate.replicas, scheme=candidate.scheme)
    mission_hours = years_to_hours(settings.mission_years)
    if math.isfinite(mttdl):
        loss_probability = probability_of_loss(mttdl, mission_hours)
    else:
        loss_probability = 0.0
    return CandidateEvaluation(
        candidate=candidate,
        annual_cost=candidate.annual_cost(),
        analytic_mttdl_hours=mttdl,
        analytic_loss_probability=loss_probability,
        mission_years=settings.mission_years,
    )


def screen_candidates(
    candidates: Iterable[CandidateDesign], settings: EvaluationSettings
) -> List[CandidateEvaluation]:
    """Screen every candidate analytically."""
    return [screen(candidate, settings) for candidate in candidates]


def refine(
    evaluation: CandidateEvaluation, settings: EvaluationSettings
) -> CandidateEvaluation:
    """Attach a Monte-Carlo refinement to a screened evaluation.

    The per-candidate seed is spawned deterministically from the root
    seed and the candidate's identity, so refinements are reproducible
    regardless of evaluation order or parallelism.  With the default
    ``method="auto"`` a threshold-2 candidate is refined by conditional
    Monte-Carlo, and any other whose standard pilot censors to
    (near-)zero losses by failure-biased importance sampling, so
    high-reliability designs get real confidence intervals instead of
    rule-of-three upper bounds.
    """
    candidate = evaluation.candidate
    seed = spawn_seed(settings.seed, candidate.key())
    estimate = run_loss_probability(
        candidate.fault_model(),
        mission_time=years_to_hours(settings.mission_years),
        trials=settings.trials,
        seed=seed,
        replicas=candidate.replicas,
        audits_per_year=candidate.audits_per_year,
        scheme=candidate.scheme,
        backend=settings.backend,
        target_relative_error=settings.target_relative_error,
        max_trials=settings.max_trials,
        method=settings.method,
    )
    low, high = estimate.confidence_interval()
    if estimate.losses == 0:
        high = zero_loss_ci_high(estimate.trials)
    simulated = SimulatedLoss(
        mean=estimate.mean,
        std_error=estimate.std_error,
        trials=estimate.trials,
        losses=estimate.losses,
        ci_low=low,
        ci_high=high,
        seed=seed,
        method=estimate.method,
        effective_sample_size=estimate.effective_sample_size,
    )
    return replace(evaluation, simulated=simulated)


def survivors_for_refinement(
    screened: Iterable[CandidateEvaluation],
    slack: float = DEFAULT_SCREEN_SLACK,
) -> List[CandidateEvaluation]:
    """Prune screened candidates that cannot reach the frontier.

    A candidate is pruned when some candidate costing no more has a
    screened loss probability at least ``slack`` times lower — it would
    take a ``slack``-fold analytic screening error for the pruned design
    to win after refinement.  ``slack=1`` reduces to the strict Pareto
    frontier of the screen.

    Returns the survivors ordered by increasing annual cost.
    """
    if slack < 1.0:
        raise ValueError("slack must be at least 1")
    ordered = sorted(
        screened,
        key=lambda e: (e.annual_cost, e.analytic_loss_probability),
    )
    survivors: List[CandidateEvaluation] = []
    best = math.inf
    for evaluation in ordered:
        if evaluation.analytic_loss_probability < best * slack:
            survivors.append(evaluation)
        best = min(best, evaluation.analytic_loss_probability)
    return survivors
