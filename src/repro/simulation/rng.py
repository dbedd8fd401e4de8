"""Reproducible random-number streams for the simulator.

Each stochastic component of a simulated system (each replica's
visible and latent fault arrivals) draws from its own named stream, all
derived from a single seed.  Separate streams keep results reproducible
even when components are added or removed, and make variance-reduction
comparisons (same fault stream, different audit policy) possible.

Seeding scheme
--------------

All generators are derived from :class:`numpy.random.SeedSequence` with
``entropy = root seed`` and a *spawn key* encoding the path from the
root:

* the root family has an empty spawn key;
* ``spawn(offset)`` appends ``offset`` to the spawn key (Monte-Carlo
  trial ``t`` of root seed ``s`` is ``entropy=s, spawn_key=(..., t)``);
* a named stream appends the CRC-32 digest of its name.

Because the root seed is carried as entropy (never folded into an
arithmetic child seed) and spawn keys form a tree, stream families of
*different* root seeds can never collide, and within one root seed every
``(trial path, stream name)`` pair maps to a distinct generator.  The
batch backend (:mod:`repro.simulation.batch`) draws from the same root
entropy under a reserved spawn tag (:data:`BATCH_SPAWN_TAG`) that is
larger than any CRC-32 digest, so batched draws never overlap the
event-driven per-trial streams either.
"""

from __future__ import annotations

import hashlib
import zlib
from typing import Dict, Tuple

import numpy as np

#: Spawn-key tag reserved for the vectorized batch backend.  CRC-32
#: digests are below 2**32, so a tag above that bound cannot collide
#: with any named stream of the event-driven simulator.
BATCH_SPAWN_TAG = 2**32 + 1

#: Spawn-key tag reserved for the piecewise (epoch-switched) batch
#: kernel's fleet chunks.
PIECEWISE_SPAWN_TAG = 2**32 + 3

#: Spawn-key tag reserved for the fleet simulator's per-chunk event
#: outcomes (shock penetrations, migration survival draws).
FLEET_EVENT_SPAWN_TAG = 2**32 + 4

#: Spawn-key tag reserved for the fleet simulator's *shared* event
#: schedule (shock arrival times and struck regions) — keyed by the
#: root seed only, so every chunk of one fleet sees the same events.
FLEET_SCHEDULE_SPAWN_TAG = 2**32 + 5

#: Spawn-key tag reserved for the control-variate (conditional
#: Monte-Carlo) estimator's skeleton chunks.
CONTROL_VARIATE_SPAWN_TAG = 2**32 + 6


class RandomStreams:
    """A family of independent, named :class:`numpy.random.Generator` s.

    Streams are created lazily the first time a name is requested; the
    same name always maps to the same deterministic child seed.
    """

    def __init__(self, seed: int = 0, _spawn_key: Tuple[int, ...] = ()) -> None:
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self._seed = seed
        self._spawn_key = tuple(_spawn_key)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed (shared by every family spawned from it)."""
        return self._seed

    @property
    def spawn_key(self) -> Tuple[int, ...]:
        """Path of spawn offsets from the root family to this one."""
        return self._spawn_key

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it if needed."""
        if name not in self._streams:
            # A stable digest keyed by the stream name: Python's built-in
            # hash() is randomised per process and would break
            # reproducibility across runs.
            digest = zlib.crc32(name.encode("utf-8"))
            child_seed = np.random.SeedSequence(
                entropy=self._seed, spawn_key=self._spawn_key + (digest,)
            )
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def exponential(self, name: str, mean: float) -> float:
        """Draw one exponential variate with the given mean (hours)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return float(self.stream(name).exponential(mean))

    def spawn(self, offset: int) -> "RandomStreams":
        """Derive an independent family for one Monte-Carlo trial.

        Trials use ``spawn(trial_index)`` so every trial is reproducible
        and independent of how many trials run.  The child keeps the
        root seed as entropy and extends the spawn key with ``offset``,
        so families spawned from different root seeds can never collide
        (the old arithmetic scheme ``seed * 1_000_003 + offset + 1``
        could: seed 0 / offset 1_000_003 aliased seed 1 / offset 0).
        """
        if offset < 0:
            raise ValueError("offset must be non-negative")
        return RandomStreams(
            seed=self._seed, _spawn_key=self._spawn_key + (offset,)
        )


def spawn_seed(seed: int, name: str) -> int:
    """Deterministic child seed for a named unit of work.

    Derives the child through the same :class:`numpy.random.SeedSequence`
    spawn-key tree as :class:`RandomStreams` (entropy = root seed, spawn
    key = CRC-32 digest of the name), so callers that need a plain
    integer seed per work item — e.g. the optimizer's per-candidate
    Monte-Carlo refinements — get seeds that are independent of
    evaluation order.  The name enters the entropy as a full SHA-256
    digest (not a 32-bit key) and the full 128-bit generated state is
    returned, so collisions between distinct ``(seed, name)`` pairs are
    negligible.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    digest = int.from_bytes(
        hashlib.sha256(name.encode("utf-8")).digest(), "little"
    )
    sequence = np.random.SeedSequence(entropy=(seed, digest))
    words = sequence.generate_state(4, np.uint32)
    return int.from_bytes(words.tobytes(), "little")


def piecewise_generator(seed: int, chunk: int = 0) -> np.random.Generator:
    """Generator for one chunk of the piecewise (epoch-switched) kernel.

    The kernel draws in the same order as :func:`simulate_batch
    <repro.simulation.batch.simulate_batch>` on :func:`batch_generator`,
    so a fleet chunk gets its own reserved tag: sharing
    :data:`BATCH_SPAWN_TAG` would make a stationary fleet chunk replay
    the plain batch chunk of the same seed draw for draw.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if chunk < 0:
        raise ValueError("chunk must be non-negative")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(PIECEWISE_SPAWN_TAG, chunk)
    )
    return np.random.default_rng(sequence)


def fleet_event_generator(seed: int, chunk: int = 0) -> np.random.Generator:
    """Generator for one fleet chunk's event *outcomes*.

    Covers the per-member randomness of scheduled events — which
    replicas a shock penetrates, which members a migration sweep loses.
    Kept separate from the fault-clock stream, so event outcomes never
    consume clock draws and the clock stream never consumes event
    draws.  (Each event still cuts the kernel's advance, which changes
    how the shared clock stream is dealt out — see
    :mod:`repro.simulation.batch`.)
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if chunk < 0:
        raise ValueError("chunk must be non-negative")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(FLEET_EVENT_SPAWN_TAG, chunk)
    )
    return np.random.default_rng(sequence)


def fleet_schedule_generator(seed: int) -> np.random.Generator:
    """Generator for a fleet's *shared* event schedule.

    Shock arrival times and the regions they strike are fleet-level
    facts: every chunk of one fleet must see the same schedule, or the
    cross-member correlation the shocks exist to model would silently
    factorise over chunks (and the event count would scale with the
    chunk count).  Keyed by the root seed alone — never by chunk.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(FLEET_SCHEDULE_SPAWN_TAG,)
    )
    return np.random.default_rng(sequence)


def control_variate_generator(seed: int, chunk: int = 0) -> np.random.Generator:
    """Generator for one chunk of the control-variate skeleton kernel.

    The conditional Monte-Carlo estimator simulates a reduced
    (second-faults-suppressed) skeleton process; its draws live under a
    reserved tag so they can never overlap the standard batch chunks of
    the same seed.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if chunk < 0:
        raise ValueError("chunk must be non-negative")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(CONTROL_VARIATE_SPAWN_TAG, chunk)
    )
    return np.random.default_rng(sequence)


def batch_generator(seed: int, chunk: int = 0) -> np.random.Generator:
    """Generator for one chunk of the vectorized batch backend.

    Chunks are numbered so adaptive sampling can keep extending a batch
    with fresh, non-overlapping draws while staying reproducible for a
    given root seed.  The reserved :data:`BATCH_SPAWN_TAG` keeps these
    draws disjoint from every event-driven trial stream of the same
    seed.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if chunk < 0:
        raise ValueError("chunk must be non-negative")
    sequence = np.random.SeedSequence(
        entropy=seed, spawn_key=(BATCH_SPAWN_TAG, chunk)
    )
    return np.random.default_rng(sequence)
