"""Parallel candidate evaluation with a content-hash result cache.

The runner orchestrates the multi-fidelity pipeline end to end:

1. analytically screen every candidate of a :class:`DesignSpace`,
2. prune candidates the screen already shows to be dominated,
3. refine the survivors with batch Monte-Carlo — in parallel across a
   :class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs > 1`` —
   skipping any survivor whose refinement is already in the cache,
4. extract the CI-aware Pareto frontier from the refined evaluations.

Refinements are keyed by a content hash of the candidate configuration
*and* the evaluation settings, so a re-run evaluates zero new
candidates, an enlarged space only pays for the new points, and a
changed seed or trial count never reads stale results.  Per-candidate
seeds are spawned deterministically from the root seed
(:func:`repro.simulation.rng.spawn_seed`), making serial and parallel
runs bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro import obs, parallel
from repro.optimize.evaluate import (
    DEFAULT_SCREEN_SLACK,
    CandidateEvaluation,
    EvaluationSettings,
    refine,
    screen_candidates,
    survivors_for_refinement,
)
from repro.optimize.frontier import pareto_frontier
from repro.optimize.space import DesignSpace
from repro.store import write_atomic


def evaluation_cache_key(
    evaluation: CandidateEvaluation, settings: EvaluationSettings
) -> str:
    """Content hash identifying one refinement result."""
    canonical = json.dumps(
        {
            "candidate": evaluation.candidate.as_dict(),
            "settings": settings.as_dict(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


class ResultCache:
    """Directory-backed store of refined candidate evaluations.

    Each entry is one JSON file named by the evaluation's content hash
    and published atomically (:func:`repro.store.write_atomic`);
    unreadable or malformed entries are treated as misses so a corrupted
    cache degrades to re-evaluation instead of failing the run.  The
    ``hits`` / ``misses`` / ``errors`` / ``stores`` counters make the
    degradation observable: a corrupt entry is an ``error``, not a
    silent miss.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def lookup(
        self, key: str
    ) -> Tuple[Optional[CandidateEvaluation], str]:
        """The entry for ``key`` plus the outcome: hit, miss or error."""
        path = self._path(key)
        if not path.exists():
            self.misses += 1
            return None, "miss"
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            evaluation = CandidateEvaluation.from_dict(payload)
        except (ValueError, KeyError, TypeError):
            self.errors += 1
            return None, "error"
        self.hits += 1
        return evaluation, "hit"

    def get(self, key: str) -> Optional[CandidateEvaluation]:
        return self.lookup(key)[0]

    def put(self, key: str, evaluation: CandidateEvaluation) -> None:
        write_atomic(
            self._path(key), json.dumps(evaluation.as_dict(), sort_keys=True)
        )
        self.stores += 1

    def __len__(self) -> int:
        return len(list(self.directory.glob("*.json")))


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
    cache: Optional[ResultCache] = None,
) -> Tuple[List[CandidateEvaluation], int, int]:
    """Refine the survivors, reusing cached results where possible.

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
    cache_hits = 0
    for index, evaluation in enumerate(survivors):
        cached = None
        if cache is not None:
            key = evaluation_cache_key(evaluation, settings)
            cached, outcome = cache.lookup(key)
            if timed:
                tel.count(f"cache.optimize.{outcome}")
                tel.event(
                    "cache",
                    data={
                        "scope": "optimize",
                        "candidate": evaluation.candidate.key(),
                        "key": key,
                        "outcome": outcome,
                    },
                )
        if cached is not None and cached.refined:
            # Only the Monte-Carlo refinement is reused; the annual cost
            # and analytic screen stay freshly computed, so edited cost
            # or drive catalogs can never leak stale numbers into the
            # frontier through the cache.
            refined[index] = replace(evaluation, simulated=cached.simulated)
            cache_hits += 1
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
            cache.put(evaluation_cache_key(result, settings), result)
            if timed:
                tel.count("cache.optimize.store")
                tel.event(
                    "cache",
                    data={
                        "scope": "optimize",
                        "candidate": result.candidate.key(),
                        "outcome": "store",
                    },
                )
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
    return ordered, len(pending), cache_hits


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
        cache_dir: directory for the content-hash result cache; ``None``
            disables caching.
        slack: screening slack (see
            :func:`~repro.optimize.evaluate.survivors_for_refinement`).
        refine_survivors: skip Monte-Carlo entirely when ``False`` — the
            frontier is then extracted from the analytic screen alone.
    """
    settings = settings or EvaluationSettings()
    tel = obs.current()
    cache = ResultCache(cache_dir) if cache_dir is not None else None

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
        cache_errors=cache.errors if cache is not None else 0,
    )
