"""Atomic publication of content-addressed cache entries.

The fleet chunk cache, the optimizer refinement cache and the serve
result store all keep one JSON file per content hash, and all three
publish through :func:`write_atomic`: a concurrent reader sees either
the old entry or the new one, never a torn write, and a writer that
fails part-way leaves no entry behind (a later lookup is a miss).
"""

from __future__ import annotations

import os
from pathlib import Path


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
