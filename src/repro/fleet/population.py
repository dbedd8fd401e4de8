"""Vectorized simulation of one fleet chunk through a timeline.

A fleet member is one independently operated archive (a library's
replica set, one institution's collection); the chunk advances
``members`` of them simultaneously through a
:class:`~repro.fleet.timeline.FleetTimeline` on the piecewise batch
kernel (:class:`~repro.simulation.batch.PiecewiseBatchState`), so the
per-event cost is a handful of NumPy sweeps instead of one Python event
loop per member — the same trade that makes the batch backend fast,
extended to non-stationary rates.

Timeline events interleave with the fault physics as a single
chronological stream:

* **epoch boundaries** switch the rate regime with the exposure-corrected
  semantics documented in :mod:`repro.simulation.batch` (fault clocks
  rescale, undetected latents re-anchor to the new audit grid,
  in-flight repairs complete on their old schedule);
* **regional shocks** arrive as a Poisson process at the epoch's rate;
  each strikes one region (members are striped across the epoch's
  region count) and faults each replica of every member there with the
  shock model's penetration probability — fleet-wide correlation the
  point estimators cannot see;
* **migration sweeps** run at their scheduled year; each surviving
  member independently loses the race to format death with the
  migration-window probability.

Randomness is split across three streams so fleets compose correctly:
fault clocks draw from the chunk's piecewise stream
(:func:`~repro.simulation.rng.piecewise_generator`); the event
*schedule* — shock arrival times and the regions they strike — draws
from a fleet-level stream keyed by ``schedule_seed`` alone
(:func:`~repro.simulation.rng.fleet_schedule_generator`), so every
chunk of one fleet experiences the *same* shocks and a regional event
genuinely spans chunks; and per-member event *outcomes* (penetration
panels, migration survival) draw from the chunk's own stream
(:func:`~repro.simulation.rng.fleet_event_generator`).  Splitting a
fleet into more chunks therefore never multiplies the number of shocks
it suffers.  Every event is also a cut in the kernel's advance, and the
clock stream is shared by the chunk's members in sweep order, so a
changed shock schedule changes which clock draws later faults get — the
same process on different draws, never a different process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.units import HOURS_PER_YEAR
from repro.fleet.timeline import FleetTimeline, MigrationEvent, RegionalShockModel
from repro.simulation.batch import LATENT, VISIBLE, PiecewiseBatchState
from repro.simulation.rng import (
    fleet_event_generator,
    fleet_schedule_generator,
    piecewise_generator,
)

#: Event kinds, in tie-break order at equal times: the epoch boundary
#: applies first (a shock at the boundary instant belongs to the new
#: regime), then migrations, then shocks.
_BOUNDARY, _MIGRATION, _SHOCK = 0, 1, 2


@dataclass
class FleetChunkResult:
    """Raw per-chunk outcome, ready to be folded into a fleet tally.

    Attributes:
        members: members simulated in this chunk.
        lost: per-member loss flags.
        loss_time: per-member loss time in hours (``inf`` for
            survivors).
        repair_year_counts: completed repairs per calendar year.
        repairs: total completed repairs.
        shock_events: shocks on the fleet schedule this chunk ran
            through (every chunk of one fleet sees the same schedule).
        shock_faults: replica faults those shocks caused in this chunk.
        migration_losses: members lost to migration sweeps.
        sweeps: lock-step sweeps the kernel needed.
    """

    members: int
    lost: np.ndarray
    loss_time: np.ndarray
    repair_year_counts: np.ndarray
    repairs: int
    shock_events: int
    shock_faults: int
    migration_losses: int
    sweeps: int

    def loss_year_counts(self, bins: int) -> np.ndarray:
        """Members lost per calendar year, clipped into ``bins`` bins."""
        counts = np.zeros(bins, dtype=np.int64)
        if self.lost.any():
            years = np.minimum(
                (self.loss_time[self.lost] / HOURS_PER_YEAR).astype(np.int64),
                bins - 1,
            )
            np.add.at(counts, years, 1)
        return counts


def _schedule_events(
    timeline: FleetTimeline, rng: np.random.Generator
) -> List[Tuple[float, int, object]]:
    """Chronological (time_hours, kind, payload) event stream.

    Shock arrival counts, times *and struck regions* are drawn per
    epoch, in epoch order, from the fleet-level schedule stream — the
    schedule is a fleet fact, identical for every chunk.  A shock's
    payload is ``(shock_model, region)``.
    """
    events: List[Tuple[float, int, object]] = []
    for epoch, start, end in timeline.spans_hours():
        if start > 0:
            events.append((start, _BOUNDARY, epoch))
        shocks = epoch.shocks
        if shocks is not None and shocks.rate_per_year > 0:
            expected = shocks.rate_per_year * (end - start) / HOURS_PER_YEAR
            count = int(rng.poisson(expected))
            times = np.sort(rng.uniform(start, end, count))
            regions = rng.integers(shocks.regions, size=count)
            for time, region in zip(times, regions):
                events.append(
                    (float(time), _SHOCK, (shocks, int(region)))
                )
    for migration in timeline.migrations:
        events.append(
            (migration.year * HOURS_PER_YEAR, _MIGRATION, migration)
        )
    events.sort(key=lambda event: (event[0], event[1]))
    return events


def _apply_shock(
    state: PiecewiseBatchState,
    time: float,
    shocks: RegionalShockModel,
    region: int,
    rng: np.random.Generator,
) -> None:
    members = np.flatnonzero(
        np.arange(state.trials) % shocks.regions == region
    )
    # Draw the full penetration panel before filtering, so the stream's
    # consumption depends only on the shock schedule, not on which
    # members happen to be lost already.
    hits = (
        rng.random((members.size, state.replicas))
        < shocks.replica_penetration
    )
    state.inject_faults(
        time, members, hits, LATENT if shocks.latent else VISIBLE
    )


def _apply_migration(
    state: PiecewiseBatchState,
    time: float,
    migration: MigrationEvent,
    rng: np.random.Generator,
) -> int:
    dies = rng.random(state.trials) < migration.loss_probability
    victims = np.flatnonzero(dies & ~state.lost)
    if victims.size:
        # Format death is a member-level loss, not a replica fault: the
        # bits are intact on every replica and uninterpretable on all of
        # them at once.
        state.lost[victims] = True
        state.end_time[victims] = time
    return int(victims.size)


def simulate_fleet_chunk(
    timeline: FleetTimeline,
    members: int,
    seed: int = 0,
    chunk: int = 0,
    schedule_seed: Optional[int] = None,
) -> FleetChunkResult:
    """Simulate ``members`` fleet members through the whole timeline.

    ``chunk`` selects an independent stream family of the same seed, so
    a fleet can be split across workers and the union of chunks is the
    same population regardless of execution order.  ``schedule_seed``
    keys the shared shock schedule; the runner passes the fleet's root
    seed so a regional event strikes every chunk at the same instant
    (defaults to ``seed`` for standalone use).
    """
    if members <= 0:
        raise ValueError("members must be positive")
    first = timeline.epochs[0]
    track_years = timeline.year_bins() - 1
    state = PiecewiseBatchState(
        first.effective_model(),
        members,
        replicas=timeline.replicas,
        audits_per_year=first.audits_per_year,
        rng=piecewise_generator(seed, chunk),
        track_years=track_years,
        scheme=timeline.scheme,
    )
    schedule_rng = fleet_schedule_generator(
        seed if schedule_seed is None else schedule_seed
    )
    event_rng = fleet_event_generator(seed, chunk)
    migration_losses = 0
    shock_events = 0
    for time, kind, payload in _schedule_events(timeline, schedule_rng):
        state.advance_to(time)
        if kind == _BOUNDARY:
            state.switch_model(
                payload.effective_model(), payload.audits_per_year
            )
        elif kind == _SHOCK:
            shock_events += 1
            shock_model, region = payload
            _apply_shock(state, time, shock_model, region, event_rng)
        else:
            migration_losses += _apply_migration(
                state, time, payload, event_rng
            )
    state.advance_to(timeline.horizon_hours)
    loss_time = np.where(state.lost, state.end_time, np.inf)
    return FleetChunkResult(
        members=members,
        lost=state.lost,
        loss_time=loss_time,
        repair_year_counts=state.repair_year_counts,
        repairs=int(state.repairs.sum()),
        shock_events=shock_events,
        shock_faults=state.shock_faults,
        migration_losses=migration_losses,
        sweeps=state.sweeps,
    )
