"""The benchmark tracer wraps functions by name; every name must resolve and
be reached by the code the workloads run, and its FLOP counter must read
the network parameters it is handed."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

from stereobridge.consistency import ConsistencyModel, denoise
from stereobridge.net import init_denoiser
from stereobridge.schedule import NoiseSchedule, make_grid

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ROOT / "perfbench" / "layers.json"


def test_traced_layers_resolve_to_callables():
    names = [entry["function"] for entry in json.loads(LAYERS.read_text())["layers"]]
    missing = []
    for name in names:
        module, function = name.split(".")
        found = getattr(importlib.import_module(f"stereobridge.{module}"), function, None)
        if not callable(found):
            missing.append(name)
    assert len(names) > 0 and missing == []


def test_traced_layers_are_referenced_by_running_code():
    # A traced function that no code reads, calls or looks up as an
    # attribute always reports zero calls.  Imports and docstrings do not
    # count as references.
    referenced = set()
    for path in [*sorted((ROOT / "src" / "stereobridge").glob("*.py")),
                 ROOT / "perfbench" / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    names = [entry["function"] for entry in json.loads(LAYERS.read_text())["layers"]]
    unreached = [name for name in names if name.split(".")[1] not in referenced]
    assert unreached == []


def load_harness(monkeypatch):
    """perfbench/harness.py loaded by path; registered only for this test,
    because its dataclasses look their module up by name."""
    path = LAYERS.parent / "harness.py"
    spec = importlib.util.spec_from_file_location("perfbench_harness", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_flop_counter_reads_the_parameter_type(monkeypatch):
    rng = np.random.default_rng(0)
    online = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=3, depth=1,
                           time_embed_dim=2)
    m = ConsistencyModel(online=online, sched=NoiseSchedule(), grid=make_grid(4),
                         sigma_data=0.5)
    tracer = load_harness(monkeypatch).Tracer(["net.forward_with_cache"])
    tracer.install()
    try:
        denoise(m, rng.standard_normal((5, 2)), 4, rng.standard_normal((5, 2)))
    finally:
        tracer.uninstall()
    # Weights are (2 + 2 + 2) x 3 and 3 x 2: 24 multiply-adds per row.
    assert tracer.stats["net.forward_with_cache"]["calls"] == 1
    assert tracer.rows == 5
    assert tracer.flop == 2 * 5 * 24
