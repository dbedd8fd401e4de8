"""Every public export list names real objects, each once."""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves_once():
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    problems = []
    for name in names:
        module = importlib.import_module(name)
        exported = list(getattr(module, "__all__", ()))
        problems += [
            f"{name}.__all__ names undefined {symbol!r}"
            for symbol in exported
            if not hasattr(module, symbol)
        ]
        problems += [
            f"{name}.__all__ lists {symbol!r} {exported.count(symbol)} times"
            for symbol in sorted(set(exported))
            if exported.count(symbol) > 1
        ]
    assert "repro.simulation" in names
    assert problems == []
