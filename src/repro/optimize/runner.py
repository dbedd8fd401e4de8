"""Parallel candidate evaluation with a content-addressed result cache.

The runner orchestrates the multi-fidelity pipeline end to end:

1. analytically screen every candidate of a :class:`DesignSpace`,
2. prune candidates the screen already shows to be dominated,
3. refine the survivors with batch Monte-Carlo — in parallel across a
   :class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs > 1`` —
   skipping any survivor whose refinement is already in the cache,
4. extract the CI-aware Pareto frontier from the refined evaluations.

Refinements are kept in the ``optimize`` scope of the content-addressed
:class:`repro.store.Store`, keyed by the candidate configuration, the
evaluation settings, the kernel's stream version and the refinement
recipe, so a re-run evaluates zero new candidates, an enlarged space
only pays for the new points, and a changed seed, trial count, stream
or recipe never reads stale results.  An unreadable entry is refined
again and a failed write only costs the entry.  Per-candidate seeds
are spawned deterministically from the root seed
(:func:`repro.simulation.rng.spawn_seed`), making serial and parallel
runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs, parallel
from repro.optimize.evaluate import (
    DEFAULT_SCREEN_SLACK,
    REFINE_RECIPE,
    CandidateEvaluation,
    EvaluationSettings,
    refine,
    screen_candidates,
    survivors_for_refinement,
)
from repro.optimize.frontier import pareto_frontier
from repro.optimize.space import DesignSpace
from repro.simulation.batch import STREAM_VERSION
from repro.store import Store, content_key


def evaluation_cache_key(
    evaluation: CandidateEvaluation, settings: EvaluationSettings
) -> str:
    """Content key identifying one refinement result."""
    return content_key(
        {
            "candidate": evaluation.candidate.as_dict(),
            "settings": settings.as_dict(),
            "kernel": STREAM_VERSION,
            "recipe": REFINE_RECIPE,
        }
    )


def _refine_task(
    payload: Tuple[CandidateEvaluation, EvaluationSettings]
) -> CandidateEvaluation:
    """Top-level worker so the pool can pickle the refinement call."""
    evaluation, settings = payload
    return refine(evaluation, settings)


@dataclass
class OptimizationResult:
    """Everything one planner run produced.

    Attributes:
        space: the design space that was searched.
        settings: the evaluation settings used.
        screened: analytic screen of every candidate (space order not
            guaranteed; sorted by cost).
        survivors: screening survivors that were (or would be) refined.
        refined: survivors with Monte-Carlo refinements attached.
        frontier: CI-aware Pareto frontier of the refined evaluations.
        new_evaluations: refinements actually computed this run.
        cache_hits: refinements served from the result cache.
        cache_errors: corrupt or unreadable cache entries encountered
            (each degraded to re-evaluation).
    """

    space: DesignSpace
    settings: EvaluationSettings
    screened: List[CandidateEvaluation] = field(default_factory=list)
    survivors: List[CandidateEvaluation] = field(default_factory=list)
    refined: List[CandidateEvaluation] = field(default_factory=list)
    frontier: List[CandidateEvaluation] = field(default_factory=list)
    new_evaluations: int = 0
    cache_hits: int = 0
    cache_errors: int = 0

    @property
    def candidates(self) -> int:
        return len(self.screened)

    @property
    def pruned(self) -> int:
        """Candidates the analytic screen removed before simulation."""
        return len(self.screened) - len(self.survivors)

    @property
    def pruned_fraction(self) -> float:
        if not self.screened:
            return 0.0
        return self.pruned / len(self.screened)

    def summary(self) -> Dict[str, object]:
        return {
            "candidates": self.candidates,
            "pruned_by_screen": self.pruned,
            "pruned_fraction": self.pruned_fraction,
            "refined": len(self.refined),
            "new_evaluations": self.new_evaluations,
            "cache_hits": self.cache_hits,
            "cache_errors": self.cache_errors,
            "frontier_size": len(self.frontier),
        }


def refine_evaluations(
    survivors: Sequence[CandidateEvaluation],
    settings: EvaluationSettings,
    jobs: int = 1,
    cache: Optional[Store] = None,
) -> Tuple[List[CandidateEvaluation], int, int]:
    """Refine the survivors, reusing cached refinements where possible.

    Returns ``(refined, new_evaluations, cache_hits)`` with ``refined``
    in the same order as ``survivors``.  Uncached survivors are refined
    on ``jobs`` worker processes (:func:`repro.parallel.map_timed`).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    tel = obs.current()
    timed = tel.enabled
    refined: Dict[int, CandidateEvaluation] = {}
    pending: List[Tuple[int, CandidateEvaluation]] = []
    for index, evaluation in enumerate(survivors):
        cached = None
        if cache is not None:
            cached, _ = cache.get(
                evaluation_cache_key(evaluation, settings),
                CandidateEvaluation.from_dict,
                fresh=lambda entry: entry.refined,
            )
        if cached is not None:
            # Only the Monte-Carlo refinement is reused; the annual cost
            # and analytic screen stay freshly computed, so edited cost
            # or drive catalogs can never leak stale numbers into the
            # frontier through the cache.
            refined[index] = replace(evaluation, simulated=cached.simulated)
        else:
            pending.append((index, evaluation))

    outcomes = parallel.map_timed(
        _refine_task,
        [(evaluation, settings) for _, evaluation in pending],
        jobs,
    )
    for (index, _), (result, seconds) in zip(pending, outcomes):
        refined[index] = result
        if cache is not None:
            cache.put(evaluation_cache_key(result, settings), result.as_dict())
        if timed:
            tel.observe("optimize.refine_seconds", seconds)
            tel.absorb(obs.worker_span_snapshot("worker.refine", seconds))
            tel.event(
                "chunk",
                data={
                    "scope": "optimize",
                    "candidate": result.candidate.key(),
                },
                timing={"seconds": seconds},
            )

    ordered = [refined[index] for index in range(len(survivors))]
    return ordered, len(pending), len(survivors) - len(pending)


def optimize(
    space: DesignSpace,
    settings: Optional[EvaluationSettings] = None,
    jobs: int = 1,
    cache_dir: Optional[Union[str, Path]] = None,
    slack: float = DEFAULT_SCREEN_SLACK,
    refine_survivors: bool = True,
) -> OptimizationResult:
    """Search a design space and return its cost–reliability frontier.

    Args:
        space: the candidate grid to search.
        settings: evaluation settings (defaults to
            :class:`EvaluationSettings`'s defaults).
        jobs: worker processes for Monte-Carlo refinement; 1 runs
            serially in-process.
        cache_dir: directory of the content-addressed store that keeps
            refinements; ``None`` disables caching.
        slack: screening slack (see
            :func:`~repro.optimize.evaluate.survivors_for_refinement`).
        refine_survivors: skip Monte-Carlo entirely when ``False`` — the
            frontier is then extracted from the analytic screen alone.
    """
    settings = settings or EvaluationSettings()
    tel = obs.current()
    cache = Store(cache_dir, "optimize") if cache_dir is not None else None

    with tel.span("screen"):
        screened = sorted(
            screen_candidates(space.candidates(), settings),
            key=lambda e: (e.annual_cost, e.analytic_loss_probability),
        )
        survivors = survivors_for_refinement(screened, slack=slack)

    if refine_survivors:
        with tel.span("refine"):
            refined, new_evaluations, cache_hits = refine_evaluations(
                survivors,
                settings,
                jobs=jobs,
                cache=cache,
            )
    else:
        refined, new_evaluations, cache_hits = list(survivors), 0, 0

    with tel.span("frontier"):
        frontier = pareto_frontier(refined)
    if tel.enabled:
        tel.count("optimize.runs")
        tel.count("optimize.candidates", len(screened))
        tel.count("optimize.survivors", len(survivors))
        tel.count("optimize.new_evaluations", new_evaluations)
    return OptimizationResult(
        space=space,
        settings=settings,
        screened=screened,
        survivors=survivors,
        refined=refined,
        frontier=frontier,
        new_evaluations=new_evaluations,
        cache_hits=cache_hits,
        cache_errors=cache.counts["error"] if cache is not None else 0,
    )
