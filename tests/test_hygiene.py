"""Source hygiene that no installed linter checks: the package under test is
this checkout's, every import is used, ``src/`` keeps only the defaulted
parameters and the command line only the flags listed here, the network's
forward pass has one caller per entry point, the README's commands parse,
and every committed benchmark record carries its machine and both sides'
medians."""

import argparse
import ast
import json
import re
import shlex
from pathlib import Path

import pytest

import stereobridge
from stereobridge.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "stereobridge"
SOURCES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")),
    key=lambda p: p.relative_to(ROOT),
)


def test_package_is_imported_from_this_checkout():
    # pyproject's pytest pythonpath puts src/ first, so a bare `pytest` tests
    # this tree rather than some other installed copy.
    assert Path(stereobridge.__file__).resolve().parent == PACKAGE.resolve()


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that nothing in the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_flags_only_unused_names():
    source = "import os\nimport a.b\nfrom c import d, e as f\nprint(a.b, f)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Every defaulted function parameter in src/, with why it keeps a default.
# Any other setting has one value, a module constant or a RunConfig field,
# so a new knob needs a deliberate entry here.
DEFAULTED = {
    "cli.main(argv)": "the console script calls main() bare; argparse reads sys.argv",
    "config._setting(check)": "RunConfig fields with no range check leave it unset",
    "config._setting(key)": "the toy arrays set it; other fields use their own name",
    "config.parse_config(source)": "load_config sets it to the file path",
    "consistency.stereo_enhancement_loss(repulsion_weight)":
        "acceptance criterion 09 sets it and relies on its default",
    "toys.oracle_ode_sample(steps)": "criteria 05 and 06 and perfbench use its 256 steps",
    "toys.run_toy_training(step_callback)":
        "train-toy passes a callback; criterion 05 trains without one",
}


def defaulted_parameters(path: Path) -> list[str]:
    """``module.function(parameter)`` for each parameter that has a default,
    methods and nested functions included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):]
                named += [k for k, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
                found.extend(f"{prefix}{child.name}({arg.arg})" for arg in named)
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    visit(ast.parse(path.read_text()), f"{path.stem}.")
    return found


def test_defaulted_parameters_are_the_listed_ones():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in defaulted_parameters(path)]
    assert sorted(found) == sorted(DEFAULTED)


# Every subcommand's flags, in declaration order; a new flag needs an entry.
FLAGS = {
    "selftest-bridge": ["--config", "--out"],
    "train-toy": ["--config", "--seed", "--out"],
    "sample": ["--config", "--checkpoint", "--nfe", "--seed", "--count", "--out"],
    "eval": ["--ref", "--syn", "--out"],
}


def test_cli_flags_are_the_listed_ones():
    [commands] = [action for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    found = {name: [flag for action in sub._actions for flag in action.option_strings
                    if flag not in ("-h", "--help")]
             for name, sub in commands.choices.items()}
    assert found == FLAGS


def call_sites(path: Path, callee: str) -> list[str]:
    """``module.function`` for each call of ``callee``, bare or as an
    attribute, named by the innermost function that makes it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                f = child.func
                if (isinstance(f, ast.Name) and f.id == callee) or \
                        (isinstance(f, ast.Attribute) and f.attr == callee):
                    found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{path.stem}.{child.name}"
            visit(child, inner)

    visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def test_call_site_scan_names_the_calling_function(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import net\nnet.f(1)\n"
                    "def g():\n    f()\n    def h():\n        net.f(2)\n")
    assert call_sites(path, "f") == ["mod.<module>", "mod.g", "mod.h"]


def test_forward_pass_has_one_caller_per_entry_point():
    # Sampling and the EMA-target pass share consistency._estimate; the
    # online pass goes through net.loss_and_grads, training's gradient driver.
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in call_sites(path, "forward_with_cache")]
    assert sorted(found) == ["consistency._estimate", "net.loss_and_grads"]


def test_denoiser_params_have_one_construction_path():
    # A fresh network is drawn by net.init_denoiser; a run's online and EMA
    # nets are laid over their flat vectors by config.model.  Copies,
    # zeroed moments and gradients are ``replace(p, flat=...)`` of these.
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in call_sites(path, "DenoiserParams")]
    assert sorted(found) == ["config.model", "net.init_denoiser"]


def readme_commands() -> list[str]:
    """Every ``stereobridge ...`` line in the README's shell blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("stereobridge ")]


def test_readme_commands_parse():
    commands = readme_commands()
    assert {shlex.split(line)[1] for line in commands} == {
        "selftest-bridge", "train-toy", "sample", "eval"}
    parser = _build_parser()
    unparsed = []
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            unparsed.append(line)
    assert unparsed == []


BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
END_TO_END = [entry["name"] for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]


def test_benchmark_records_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_benchmark_record_has_machine_and_medians(path):
    record = json.loads(path.read_text())
    machine = record["machine"]
    for key in ("nproc", "blas", "numpy", "python"):
        assert machine[key], key
    assert record["workloads"]
    for workload, entry in record["workloads"].items():
        for name in END_TO_END:
            for side in ("parent", "change"):
                median = entry["end_to_end"][name][side]["median"]
                assert isinstance(median, (int, float)), (workload, name, side)
