"""Every definition in src is reached by code that is not a test.

One AST pass collects every ``Name`` and ``Attribute`` in src (without
the package ``__init__`` re-exports), examples, benchmarks and
perfbench.  A top-level function or class of src, or a non-dunder
method of a top-level class, counts as reached when its name appears
there more often than in its own body; a definition only tests call
fails the check unless :data:`KEPT` names it with its reason.

The scan matches names, not bindings.  It cannot see a dead definition
that shares its name with a live one (a method ``merge`` is reached by
any other ``.merge``), nor a use spelled as a string (``getattr``, an
entry point), and it checks no module-level constant or enum member, so
it catches most test-only code, not all of it.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLERS = ("examples", "benchmarks", "perfbench")

#: Unreached definitions that stay, each with its reason.
KEPT = {
    "scheme_mttdl_markov": "the exact (n, k) chain MTTDL, kept as the "
    "reference for calibrating the simulators at loss thresholds >= 3",
    "build_scrubbed_chain": "the scrubbed mirrored chain, kept for the "
    "same calibration",
    "ServeClient": "the server's Python client; CI's serve job and the "
    "README drive the server through it",
    "ServeClient.query": "see ServeClient",
    "ServeClient.query_stream": "see ServeClient",
    "ServeClient.health": "see ServeClient",
    "SimulationEngine.events_processed": "probe: bounds the events an "
    "event-engine trial costs",
    "SimulationEngine.pending_events": "probe: the queue's lazy "
    "cancellation bookkeeping",
    "Trace.faults_by_type": "probe: the fault mix a trace records",
    "RandomStreams.spawn_key": "probe: the path a spawned stream derives "
    "from",
}


def _names(tree: ast.AST) -> Counter:
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__")
                                 and item.name.endswith("__"))):
                    yield f"{node.name}.{item.name}", item


@functools.lru_cache(maxsize=None)
def unreached() -> dict:
    """Map each unreached definition's qualified name to its module."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.rglob("*.py"))}
    uses = Counter()
    for path, tree in trees.items():
        if path.name != "__init__.py":
            uses.update(_names(tree))
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            uses.update(_names(ast.parse(path.read_text(), str(path))))
    found = {}
    for path, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if uses[name] <= _names(node)[name]:
                found[qualname] = str(path.relative_to(SRC))
    return found


def test_only_kept_definitions_are_unreached():
    stray = {name: module for name, module in unreached().items()
             if name not in KEPT}
    assert stray == {}


def test_every_kept_definition_is_still_unreached():
    assert sorted(set(KEPT) - set(unreached())) == []
