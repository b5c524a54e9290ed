"""The traced benchmark run (perfbench/spans.py) times each layer by
replacing a function name in the namespace of its caller, as listed in
BOUNDARIES. A refactor that drops one of those names would break only a
traced run, so this test resolves every one of them."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_boundary_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{spec}.{attr}" for spec, attr, _ in spans.BOUNDARIES
        if not hasattr(spans._owner(spec), attr)
    ]
    assert not missing, f"boundaries that no longer resolve: {missing}"
