"""The persistent Scenario→StudyResult store behind the serve layer.

A :class:`ResultStore` memoizes study answers on disk, one JSON file per
*question*, following the durable-answer discipline of Gladney & Lorie's
*Trustworthy 100-Year Digital Objects*: every entry carries the full
producing scenario, its content hash, and the schema-versioned result,
so an archived answer stays re-derivable long after the asker is gone.

Two hash keys are in play:

* the scenario **content hash** (:meth:`Scenario.content_hash`) — the
  exact-identity key single-flight deduplication uses;
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

Files, atomic publication, the memory of parsed entries and the fault
contract belong to :class:`repro.store.Store`: an unreadable or
undecodable entry is an ``error`` that degrades to a recompute, and a
failed write is a ``write_error`` that costs the entry, not the answer.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.store import Store, content_key
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
    policy's :data:`PRECISION_KNOBS` removed, under the store's one
    key recipe (:func:`repro.store.content_key`).
    """
    payload = scenario.as_dict()
    payload["label"] = None
    policy = dict(payload["policy"])
    for knob in PRECISION_KNOBS:
        policy.pop(knob, None)
    payload["policy"] = policy
    return content_key(payload)


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


def _decode_entry(entry: Dict[str, object]) -> Tuple[StudyResult, float]:
    """A stored answer and the relative error it achieved: ``0`` for
    exact answers, infinite when unknowable.  Other entry schemas are
    rejected rather than guessed at."""
    if entry.get("schema") != ENTRY_SCHEMA_VERSION:
        raise ValueError(f"unknown store entry schema {entry.get('schema')!r}")
    achieved = 0.0 if entry.get("exact") else entry.get("relative_error")
    return (
        StudyResult.from_dict(entry["result"]),
        math.inf if achieved is None else float(achieved),
    )


class ResultStore:
    """A shared, persistent map from questions to study answers.

    The serve policy over the ``serve`` scope of the content-addressed
    :class:`repro.store.Store`, which owns the files, the memory of
    parsed entries and the outcome counters.

    Args:
        directory: where entries live (created if missing).  One file
            per question key; safe to share between processes and with
            the fleet and planner scopes.

    Attributes:
        entries: the underlying store.  :class:`StudyService` points its
            ``telemetry`` at the service's own registry.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.entries = Store(directory, "serve")

    @property
    def directory(self) -> Path:
        return self.entries.directory

    def lookup(self, scenario: Scenario) -> Tuple[Optional[StudyResult], str]:
        """The stored answer for a scenario's question, plus an outcome.

        The outcomes are the store's (:mod:`repro.store`): ``"hit"``,
        ``"miss"`` or ``"error"``, and ``"stale"`` when an answer exists
        but the caller demanded a tighter ``target_relative_error`` than
        it achieved (recompute, then :meth:`put` overwrites the entry
        with the sharper answer).  Exact answers are never stale.
        """
        demanded = scenario.policy.target_relative_error
        decoded, outcome = self.entries.get(
            question_key(scenario),
            _decode_entry,
            lambda entry: demanded is None or entry[1] <= demanded,
        )
        return (None if decoded is None else decoded[0]), outcome

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
        shared kernel invocation.  A failed write is counted as
        ``write_error``, never raised.
        """
        key = question_key(scenario)
        self.entries.put(
            key,
            {
                "schema": ENTRY_SCHEMA_VERSION,
                "question_key": key,
                "scenario": scenario.as_dict(),
                "scenario_hash": (
                    result.scenario_hash or scenario.content_hash()
                ),
                "exact": result.engine in EXACT_ENGINES,
                "relative_error": achieved_relative_error(result),
                "batched": bool(batched),
                "result": result.as_dict(),
            },
        )
        return key
