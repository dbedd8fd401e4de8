"""repro.fleet — decades-scale, non-stationary fleet simulation.

Answers the question the paper actually poses: *what fraction of a
large archive fleet survives 50–100 years* under realistic timelines of
media-generation refresh, format migration, aging hazards and
fleet-wide correlated shocks — not the steady-state MTTDL of one frozen
configuration.  Declare the decades as a :class:`FleetTimeline`, run
thousands of members through the vectorized population kernel with
:func:`simulate_fleet`, and read off survival curves,
loss-fraction-by-year, and cumulative cost trajectories.  See the
README's "Fleet timelines" section and
``examples/national_library_fleet.py``.
"""

from repro.fleet.aggregate import FleetTally
from repro.fleet.population import FleetChunkResult, simulate_fleet_chunk
from repro.fleet.runner import (
    DEFAULT_CHUNK_SIZE,
    FleetResult,
    chunk_cache_key,
    simulate_fleet,
)
from repro.fleet.timeline import (
    FleetEpoch,
    FleetTimeline,
    MigrationEvent,
    RegionalShockModel,
    generation_refresh_timeline,
    shock_model_from_threats,
    stationary_timeline,
    timeline_from_recommendation,
)

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "FleetChunkResult",
    "FleetEpoch",
    "FleetResult",
    "FleetTally",
    "FleetTimeline",
    "MigrationEvent",
    "RegionalShockModel",
    "chunk_cache_key",
    "generation_refresh_timeline",
    "shock_model_from_threats",
    "simulate_fleet",
    "simulate_fleet_chunk",
    "stationary_timeline",
    "timeline_from_recommendation",
]
