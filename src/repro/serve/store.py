"""The persistent Scenario→StudyResult store behind the serve layer.

A :class:`ResultStore` memoizes study answers on disk, one JSON file per
*question*, following the durable-answer discipline of Gladney & Lorie's
*Trustworthy 100-Year Digital Objects*: every entry carries the full
producing scenario, its content hash, and the schema-versioned result,
so an archived answer stays re-derivable long after the asker is gone.

Two hash keys are in play:

* the scenario **content hash** (:meth:`Scenario.content_hash`) — the
  exact-identity key the single-flight deduplication and the optimize /
  fleet caches use;
* the **question key** (:func:`question_key`) — the content hash of the
  scenario with its *precision knobs* (``trials``, ``max_trials``,
  ``target_relative_error``, ``seed``) and its ``label`` normalised
  away.  Two scenarios that ask the same physical question at different
  sampling effort share one store entry.

Entries are refreshed, not merely invalidated: an exact (analytic /
markov) answer hits forever, a stochastic answer hits while its achieved
relative error satisfies the caller's ``target_relative_error`` demand,
and a tighter demand reports ``"stale"`` so the service recomputes and
overwrites the entry with the sharper answer.

Concurrency hardening matches the optimize/fleet caches: writes go
through the shared atomic publish (:func:`repro.store.write_atomic`, a
per-process temporary file and ``os.replace``), readers treat any
undecodable entry as a miss-with-error (degrading to recompute, never
crashing), and the in-memory hot cache is validated against the file's ``(mtime_ns, size)`` stat signature so two
processes sharing one directory converge on the newest entry.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.store import write_atomic
from repro.study.result import StudyResult
from repro.study.scenario import Scenario

__all__ = ["ENTRY_SCHEMA_VERSION", "ResultStore", "question_key"]

#: Version of the on-disk entry layout.  Readers reject other versions
#: as corrupt (degrade to recompute) rather than guessing.
ENTRY_SCHEMA_VERSION = 1

#: Policy fields that tune *how hard* to work on an answer, not *which*
#: answer is being asked for.  Normalised away by :func:`question_key`.
PRECISION_KNOBS: Tuple[str, ...] = (
    "trials",
    "max_trials",
    "target_relative_error",
    "seed",
)

#: Engines whose answers are exact (std_error 0) and memoize forever.
EXACT_ENGINES: Tuple[str, ...] = ("analytic", "markov")


def question_key(scenario: Scenario) -> str:
    """Hash identifying the physical question a scenario asks.

    The scenario's canonical dict with ``label`` dropped and the
    policy's :data:`PRECISION_KNOBS` removed, hashed with the same
    SHA-256-over-sorted-JSON recipe (and the same 32-hex-digit width) as
    :meth:`Scenario.content_hash` — so store filenames sit naturally
    next to the optimize/fleet cache files.
    """
    payload = scenario.as_dict()
    payload["label"] = None
    policy = dict(payload["policy"])
    for knob in PRECISION_KNOBS:
        policy.pop(knob, None)
    payload["policy"] = policy
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def achieved_relative_error(result: StudyResult) -> Optional[float]:
    """The relative error a result actually achieved.

    ``std_error / |value|`` when both are finite and the value is
    non-zero; ``0.0`` for exact answers (``std_error == 0``); ``None``
    when the precision is unknowable (zero or non-finite mean), matching
    :attr:`MonteCarloEstimate.relative_error` returning ``inf`` there.
    """
    if result.std_error == 0.0:
        return 0.0
    if (
        result.value is None
        or result.std_error is None
        or not math.isfinite(result.value)
        or not math.isfinite(result.std_error)
        or result.value == 0.0
    ):
        return None
    return abs(result.std_error / result.value)


class ResultStore:
    """A shared, persistent map from questions to study answers.

    Args:
        directory: where entries live (created if missing).  One file
            per question key; safe to share between processes.

    Attributes:
        hits / misses / stales / errors / stores: outcome counters,
            mirroring the ``lookup()`` outcome API of
            :class:`repro.optimize.runner.ResultCache` and the fleet
            chunk cache (``errors`` counts corrupt entries that degraded
            to recompute).
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stales = 0
        self.errors = 0
        self.stores = 0
        # question_key -> ((mtime_ns, size), decoded entry).  Validated
        # against the file's stat signature on every lookup, so another
        # process overwriting an entry is picked up on the next read.
        self._memory: Dict[str, Tuple[Tuple[int, int], Dict[str, object]]] = {}

    # -- reading -----------------------------------------------------------

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def _load_entry(self, key: str) -> Tuple[Optional[Dict[str, object]], bool]:
        """(entry, corrupt) for the question key; (None, False) if absent."""
        path = self._path(key)
        try:
            signature_stat = path.stat()
        except OSError:
            return None, False
        signature = (signature_stat.st_mtime_ns, signature_stat.st_size)
        cached = self._memory.get(key)
        if cached is not None and cached[0] == signature:
            return cached[1], False
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry, dict):
                raise ValueError("store entry is not an object")
            if entry.get("schema") != ENTRY_SCHEMA_VERSION:
                raise ValueError(
                    f"unknown store entry schema {entry.get('schema')!r}"
                )
            # Decode eagerly so a truncated/garbled result payload is
            # classified as corrupt here, not at serving time.
            StudyResult.from_dict(entry["result"])
        except OSError:
            return None, False
        except (KeyError, TypeError, ValueError):
            return None, True
        self._memory[key] = (signature, entry)
        return entry, False

    def lookup(self, scenario: Scenario) -> Tuple[Optional[StudyResult], str]:
        """The stored answer for a scenario's question, plus an outcome.

        Outcomes mirror the other content-hash caches:

        * ``"hit"`` — a stored answer satisfies the request (exact
          answers always do; stochastic answers do when the caller set
          no ``target_relative_error`` or the stored achieved relative
          error meets it);
        * ``"stale"`` — an answer exists but the caller demanded a
          tighter relative error than it achieved (recompute, then
          :meth:`put` overwrites with the sharper answer);
        * ``"miss"`` — no entry;
        * ``"error"`` — a corrupt entry degraded to recompute (counted
          in :attr:`errors`, never raised).
        """
        key = question_key(scenario)
        entry, corrupt = self._load_entry(key)
        if corrupt:
            self.errors += 1
            return None, "error"
        if entry is None:
            self.misses += 1
            return None, "miss"
        result = StudyResult.from_dict(entry["result"])
        if not entry.get("exact", False):
            demanded = scenario.policy.target_relative_error
            achieved = entry.get("relative_error")
            if demanded is not None and (
                achieved is None or float(achieved) > demanded
            ):
                self.stales += 1
                return None, "stale"
        self.hits += 1
        return result, "hit"

    # -- writing -----------------------------------------------------------

    def put(
        self,
        scenario: Scenario,
        result: StudyResult,
        batched: bool = False,
    ) -> str:
        """Persist one answer under its question key; returns the key.

        The entry records the full producing scenario and its content
        hash (provenance: which precision knobs actually produced the
        stored numbers), the achieved relative error the staleness check
        reads, and whether the answer came off the batching queue's
        shared kernel invocation.
        """
        key = question_key(scenario)
        entry: Dict[str, object] = {
            "schema": ENTRY_SCHEMA_VERSION,
            "question_key": key,
            "scenario": scenario.as_dict(),
            "scenario_hash": result.scenario_hash or scenario.content_hash(),
            "exact": result.engine in EXACT_ENGINES,
            "relative_error": achieved_relative_error(result),
            "batched": bool(batched),
            "result": result.as_dict(),
        }
        write_atomic(
            self._path(key), json.dumps(entry, indent=2, sort_keys=True)
        )
        self.stores += 1
        self._memory.pop(key, None)
        return key

    # -- reporting ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stales": self.stales,
            "errors": self.errors,
            "stores": self.stores,
        }
