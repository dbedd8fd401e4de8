"""repro.optimize — budget-constrained reliability planner.

Searches a declarative design space (replication degree, storage
medium, audit rate, site placement) for the cost–reliability Pareto
frontier, using cheap analytic screening to prune dominated candidates
and batch Monte-Carlo to refine the survivors with confidence
intervals.  See the README's "Budget-constrained planner" section and
``examples/plan_archive_budget.py``.
"""

from repro.optimize.evaluate import (
    CandidateEvaluation,
    EvaluationSettings,
    SimulatedLoss,
    screen,
    screen_candidates,
    screen_loss_rate,
    screen_mttdl_hours,
    refine,
    survivors_for_refinement,
)
from repro.optimize.frontier import dominates, pareto_frontier, recommend
from repro.optimize.runner import (
    OptimizationResult,
    evaluation_cache_key,
    optimize,
    refine_evaluations,
)
from repro.optimize.space import (
    CandidateDesign,
    DesignSpace,
    ResolvedMedium,
    placement_alpha,
    resolve_medium,
)

__all__ = [
    "CandidateDesign",
    "CandidateEvaluation",
    "DesignSpace",
    "EvaluationSettings",
    "OptimizationResult",
    "ResolvedMedium",
    "SimulatedLoss",
    "dominates",
    "evaluation_cache_key",
    "optimize",
    "pareto_frontier",
    "placement_alpha",
    "recommend",
    "refine",
    "refine_evaluations",
    "resolve_medium",
    "screen",
    "screen_candidates",
    "screen_loss_rate",
    "screen_mttdl_hours",
    "survivors_for_refinement",
]
