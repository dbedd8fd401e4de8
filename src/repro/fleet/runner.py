"""Chunked, parallel, cached execution of fleet timelines.

The runner cuts a fleet of ``members`` archives into chunks, simulates
each chunk on the vectorized population kernel — across a
:class:`~concurrent.futures.ProcessPoolExecutor` when ``jobs > 1`` —
and reduces the mergeable per-chunk tallies into one
:class:`FleetResult` carrying the survival curve, the
loss-fraction-by-year series, and the cumulative per-member cost
trajectory.  Two properties make runs composable:

* **order-independent seeding** — every chunk's stream family is keyed
  by :func:`repro.simulation.rng.spawn_seed` on the chunk index, so
  serial and parallel runs (and any worker scheduling) produce
  bit-identical tallies;
* **content-hash caching** — a chunk's tally is kept in the ``fleet``
  scope of the content-addressed :class:`repro.store.Store`, keyed by
  the full timeline definition, the chunk geometry, the root seed and
  the kernel version, so re-running a fleet costs nothing and growing
  one only pays for the new members.  An unreadable entry is re-simulated
  and a failed write only costs the entry (the store's fault contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import obs, parallel
from repro.fleet.aggregate import FleetTally
from repro.fleet.population import simulate_fleet_chunk
from repro.fleet.timeline import FleetTimeline
from repro.simulation.estimators import MonteCarloEstimate
from repro.simulation.rng import spawn_seed
from repro.store import Store, content_key

#: Default members per chunk, and the only copy of that default: the
#: study scenario and the CLI read it from here.  Every chunk replays
#: every epoch switch and every shock, and below ~10,000 rows a
#: lock-step sweep costs mostly NumPy call overhead.  On a 2-core host
#: without numba, the nine perfbench fleets (20,000 members x 50 years)
#: took 2.2-2.4 s at 1,000 members per chunk and 0.93-0.95 s at 10,000
#: serially, and 0.63-0.66 s at 10,000 on two workers, where one
#: 20,000-member chunk (0.80-0.86 s) leaves a worker idle.  The
#: partition decides the random streams (each chunk draws from its own
#: spawned seed), so it depends only on ``members`` and this size,
#: never on ``jobs`` or the host: ``jobs`` only decides dispatch.
DEFAULT_CHUNK_SIZE = 10_000


#: Version of the chunk kernel's random stream, hashed into every chunk
#: key.  Bump it whenever the kernel consumes its generator differently:
#: tallies cached under the old stream then miss instead of merging with
#: chunks of the same fleet simulated under the new one (which would make
#: a warm run differ from a cold run at the same seed).
_KERNEL_VERSION = 2


def chunk_cache_key(
    timeline: FleetTimeline, members: int, seed: int, index: int
) -> str:
    """Content key identifying one chunk's tally."""
    return content_key(
        {
            "timeline": timeline.as_dict(),
            "members": members,
            "seed": seed,
            "chunk": index,
            "kernel": _KERNEL_VERSION,
        }
    )


def _chunk_task(payload: Tuple[FleetTimeline, int, int, int]) -> FleetTally:
    """Top-level worker so the pool can pickle the chunk simulation."""
    timeline, size, chunk_seed, schedule_seed = payload
    return FleetTally.from_chunk(
        simulate_fleet_chunk(
            timeline, size, seed=chunk_seed, schedule_seed=schedule_seed
        )
    )


@dataclass
class FleetResult:
    """Everything one fleet run produced.

    Attributes:
        timeline: the timeline that was simulated.
        members: fleet size.
        seed: root seed.
        tally: the merged fleet tally.
        chunks: chunks the fleet was cut into.
        new_chunks: chunks actually simulated this run.
        cache_hits: chunks served from the cache.
        cache_errors: corrupt or unreadable cache entries encountered
            (each degraded to re-simulation).
    """

    timeline: FleetTimeline
    members: int
    seed: int
    tally: FleetTally
    chunks: int
    new_chunks: int
    cache_hits: int
    cache_errors: int = 0

    def survival_curve(self) -> np.ndarray:
        return self.tally.survival_curve()

    def loss_fraction_by_year(self) -> np.ndarray:
        return self.tally.loss_fraction_by_year()

    def loss_estimate(self) -> MonteCarloEstimate:
        return self.tally.loss_estimate()

    def cost_per_member_by_year(self) -> np.ndarray:
        """Per-member dollars spent in each calendar year.

        The timeline's deterministic schedule (hardware amortisation,
        power, admin, audits, migration sweeps) plus the simulated
        repair activity priced at each year's epoch repair cost.
        """
        costs = self.timeline.base_cost_by_year()
        repair_rates = (
            self.tally.repair_year_counts[: costs.size]
            / max(self.members, 1)
        )
        for year in range(costs.size):
            epoch = self.timeline.epoch_at(
                min(float(year), self.timeline.years)
            )
            costs[year] += repair_rates[year] * epoch.cost_per_repair
        return costs

    def cumulative_cost_per_member(self) -> np.ndarray:
        """Running per-member total cost at the end of each year."""
        return np.cumsum(self.cost_per_member_by_year())

    def summary(self) -> Dict[str, object]:
        estimate = self.loss_estimate()
        low, high = estimate.confidence_interval()
        return {
            "members": self.members,
            "years": self.timeline.years,
            "epochs": len(self.timeline.epochs),
            "migrations": len(self.timeline.migrations),
            "losses": self.tally.losses,
            "loss_fraction": self.tally.loss_fraction,
            "loss_ci_low": low,
            "loss_ci_high": high,
            "migration_losses": self.tally.migration_losses,
            # Every chunk runs through the same fleet-level schedule and
            # counts it in full, so the per-chunk sum divides back out.
            "shock_events": self.tally.shock_events // max(self.chunks, 1),
            "shock_faults": self.tally.shock_faults,
            "repairs": self.tally.repairs,
            "total_cost_per_member": float(
                self.cumulative_cost_per_member()[-1]
            ),
            "chunks": self.chunks,
            "new_chunks": self.new_chunks,
            "cache_hits": self.cache_hits,
            "cache_errors": self.cache_errors,
        }

    def as_dict(self) -> Dict[str, object]:
        return {
            "timeline": self.timeline.as_dict(),
            "seed": self.seed,
            "summary": self.summary(),
            "survival_curve": self.survival_curve().tolist(),
            "loss_fraction_by_year": self.loss_fraction_by_year().tolist(),
            "cumulative_cost_per_member": (
                self.cumulative_cost_per_member().tolist()
            ),
        }


def _chunk_sizes(members: int, chunk_size: int) -> List[int]:
    full, remainder = divmod(members, chunk_size)
    sizes = [chunk_size] * full
    if remainder:
        sizes.append(remainder)
    return sizes


def simulate_fleet(
    timeline: FleetTimeline,
    members: int,
    seed: int = 0,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    cache_dir: Optional[Union[str, Path]] = None,
) -> FleetResult:
    """Simulate a fleet of ``members`` archives through a timeline.

    Args:
        timeline: the non-stationary plan to simulate.
        members: fleet size.
        seed: root seed; per-chunk seeds are spawned deterministically.
        jobs: worker processes (:func:`repro.parallel.map_timed`); 1
            runs serially in-process.
        chunk_size: members per chunk.  The partition decides the
            random streams, so the answer depends on it, never on
            ``jobs``.
        cache_dir: directory of the content-addressed store that keeps
            chunk tallies; ``None`` disables caching.

    Raises:
        ValueError: for a non-positive fleet size, chunk size or job
            count.
    """
    if members <= 0:
        raise ValueError("members must be positive")
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    tel = obs.current()
    timed = tel.enabled
    store = Store(cache_dir, "fleet") if cache_dir is not None else None
    sizes = _chunk_sizes(members, chunk_size)
    tallies: Dict[int, FleetTally] = {}
    pending: List[Tuple[int, Tuple[FleetTimeline, int, int]]] = []
    for index, size in enumerate(sizes):
        cached = None
        if store is not None:
            cached, _ = store.get(
                chunk_cache_key(timeline, size, seed, index),
                FleetTally.from_dict,
            )
        if cached is not None:
            tallies[index] = cached
        else:
            chunk_seed = spawn_seed(seed, f"fleet-chunk-{index}")
            # The schedule seed is the fleet's root seed: every chunk
            # must experience the same shock arrivals and regions.
            pending.append((index, (timeline, size, chunk_seed, seed)))

    outcomes = parallel.map_timed(
        _chunk_task, [payload for _, payload in pending], jobs
    )
    for (index, payload), (tally, seconds) in zip(pending, outcomes):
        tallies[index] = tally
        if store is not None:
            store.put(
                chunk_cache_key(timeline, payload[1], seed, index),
                tally.as_dict(),
            )
        if timed:
            tel.observe("fleet.chunk_seconds", seconds)
            tel.absorb(
                obs.worker_span_snapshot("worker.fleet_chunk", seconds)
            )
            tel.event(
                "chunk",
                data={
                    "scope": "fleet",
                    "chunk": index,
                    "members": payload[1],
                },
                timing={"seconds": seconds},
            )

    merged = tallies[0]
    for index in range(1, len(sizes)):
        merged = merged.merge(tallies[index])
    if timed:
        tel.count("fleet.runs")
        tel.count("fleet.members", members)
        tel.count("fleet.chunks", len(sizes))
        tel.count("fleet.new_chunks", len(pending))
    return FleetResult(
        timeline=timeline,
        members=members,
        seed=seed,
        tally=merged,
        chunks=len(sizes),
        new_chunks=len(pending),
        cache_hits=len(sizes) - len(pending),
        cache_errors=store.counts["error"] if store is not None else 0,
    )
