"""The benchmark tracer wraps functions by name; every name must resolve."""

import importlib
import json
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"


def test_traced_layers_resolve_to_callables():
    names = [entry["function"] for entry in json.loads(LAYERS.read_text())["layers"]]
    missing = []
    for name in names:
        module, function = name.split(".")
        found = getattr(importlib.import_module(f"stereobridge.{module}"), function, None)
        if not callable(found):
            missing.append(name)
    assert len(names) > 0 and missing == []
