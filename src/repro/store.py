"""The one content-addressed store behind every cache of the toolkit.

Fleet chunk tallies, planner refinements and served study answers all
live as one JSON file per content key, read and written through a
:class:`Store`.  The store owns every decision about those files:

* the key recipe, :func:`content_key`: SHA-256 over the sorted JSON of
  a payload, cut to 32 hex digits;
* entry file names: ``fleet-<key>.json`` for fleet chunk tallies and
  ``<key>.json`` for planner refinements and served answers, so the
  three scopes can share one directory;
* atomic publication, :func:`write_atomic`: a concurrent reader sees
  the old entry or the new one, never a torn write;
* a memory of parsed entries, validated against each file's
  ``(mtime_ns, size)``, so a writer in another process is seen on the
  next read;
* one outcome contract.  A read is ``hit``, ``miss`` (no file),
  ``stale`` (the caller's freshness check turned a readable entry down)
  or ``error`` (any other ``OSError``, or any decode failure).  A put is
  ``store``, or ``write_error`` when publishing raises ``OSError``.
  Neither raises: a faulty disk costs the cache, never the answer.
  Each outcome is counted once, as ``cache.<scope>.<outcome>``, and
  recorded as one ``cache`` trace event.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, TypeVar, Union

from repro import obs

__all__ = ["Store", "content_key", "write_atomic"]

T = TypeVar("T")

#: Entry-name prefix and JSON indent of each scope.  Planner and serve
#: entries predate name prefixes, and serve entries are indented for
#: people reading an archive; changing either would turn existing cache
#: directories cold or rewrite them.
_LAYOUT: Dict[str, Tuple[str, Optional[int]]] = {
    "fleet": ("fleet-", None),
    "optimize": ("", None),
    "serve": ("", 2),
}


def content_key(payload: object) -> str:
    """The content key of a JSON-serialisable payload.

    Scenario hashes, serve question keys, fleet chunk keys and planner
    refinement keys all use this one recipe.
    """
    canonical = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a per-process temporary file.

    The temporary name carries the pid, so two processes publishing the
    same key cannot clobber each other's staging file; the last
    ``os.replace`` wins, which is fine because both wrote a complete
    entry for the same key.  The staging file is removed if the write
    or the replace fails.
    """
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Store:
    """A directory of content-keyed JSON entries for one scope.

    Args:
        directory: where entries live (created if missing); the scopes
            may share one directory.
        scope: ``"fleet"``, ``"optimize"`` or ``"serve"``; names the
            entry files and the counters.

    Attributes:
        counts: how often each outcome occurred on this store.
        telemetry: the registry outcomes are counted into; ``None`` (the
            default) counts into :func:`repro.obs.current` at each call.
    """

    def __init__(self, directory: Union[str, Path], scope: str) -> None:
        self._prefix, self._indent = _LAYOUT[scope]
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.scope = scope
        self.counts: Counter = Counter()
        self.telemetry: Optional[obs.Telemetry] = None
        # key -> (its file's (mtime_ns, size), the parsed JSON object)
        self._memory: Dict[str, Tuple[Tuple[int, int], dict]] = {}

    def path(self, key: str) -> Path:
        """The entry file of ``key``."""
        return self.directory / f"{self._prefix}{key}.json"

    def get(
        self,
        key: str,
        decode: Callable[[Dict[str, object]], T],
        fresh: Optional[Callable[[T], bool]] = None,
    ) -> Tuple[Optional[T], str]:
        """The decoded entry under ``key`` and the read's outcome.

        ``decode`` turns the entry's JSON object into the caller's
        value.  It runs on every hit, from memory or not, so no two
        callers share a mutable value.  ``fresh``, when given, decides
        whether a decoded entry may be used; ``False`` makes the read
        ``stale``.
        """
        path = self.path(key)
        try:
            stat = path.stat()
            signature = (stat.st_mtime_ns, stat.st_size)
            remembered = self._memory.get(key)
            if remembered is not None and remembered[0] == signature:
                entry = remembered[1]
            else:
                entry = json.loads(path.read_text(encoding="utf-8"))
                if not isinstance(entry, dict):
                    raise ValueError("a store entry must be a JSON object")
            value = decode(entry)
            usable = fresh is None or fresh(value)
        except FileNotFoundError:
            return None, self._count("miss", key)
        except (OSError, AttributeError, KeyError, TypeError, ValueError):
            # Unreadable, or not what ``decode`` expects.
            return None, self._count("error", key)
        self._memory[key] = (signature, entry)
        if not usable:
            return None, self._count("stale", key)
        return value, self._count("hit", key)

    def put(self, key: str, entry: Dict[str, object]) -> str:
        """Publish ``entry`` under ``key``; returns the outcome."""
        text = json.dumps(entry, indent=self._indent, sort_keys=True)
        try:
            write_atomic(self.path(key), text)
        except OSError:
            return self._count("write_error", key)
        self._memory.pop(key, None)
        return self._count("store", key)

    def _count(self, outcome: str, key: str) -> str:
        self.counts[outcome] += 1
        tel = obs.current() if self.telemetry is None else self.telemetry
        if tel.enabled:
            tel.count(f"cache.{self.scope}.{outcome}")
            tel.event(
                "cache",
                data={"scope": self.scope, "key": key, "outcome": outcome},
            )
        return outcome
