"""Source hygiene that no installed linter checks: the package under test is
this checkout's, every import is used, ``src/`` keeps only the defaulted
parameters and the command line only the flags listed here, only ``main``
returns the usage exit code, the network's forward pass has one caller per
entry point, array arguments are not converted again, no result forks on a
zero-dimensional input, every cache is listed, the README's commands parse,
float32 is cast at one site, and every committed benchmark record carries
its machine and both sides' medians."""

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


def matching_sites(path: Path, matches) -> list[str]:
    """``module.function`` for each AST node that ``matches`` accepts, named
    by the innermost function that holds it."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if matches(child):
                found.append(where)
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{path.stem}.{child.name}"
            visit(child, inner)

    visit(ast.parse(path.read_text()), f"{path.stem}.<module>")
    return found


def names(node, name: str) -> bool:
    """Whether ``node`` is ``name``, bare or as an attribute."""
    return (isinstance(node, ast.Name) and node.id == name) or \
        (isinstance(node, ast.Attribute) and node.attr == name)


def call_sites(path: Path, callee: str) -> list[str]:
    """``module.function`` for each call of ``callee``, bare or as an
    attribute, named by the innermost function that makes it."""
    return matching_sites(path, lambda node: isinstance(node, ast.Call)
                          and names(node.func, callee))


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


# Every function in src/ that calls np.asarray, with why it converts.  Other
# functions take the float64 arrays their callers already pass, so a new
# conversion needs a deliberate entry here.
ASARRAY_SITES = {
    "bridge.__post_init__": "Endpoints and BridgeSample check what they store",
    "dsp.__post_init__": "StereoWaveform, Spectrogram and MelCepstra check what they store",
    "spatial.__post_init__": "SceneFeatureGrid and EnergyVector check what they store",
    "toys.__post_init__": "GaussianMixture checks the config's lists it is built from",
    "schedule._check_unit_time": "times arrive as Python floats or grid arrays",
    "net.time_embedding": "times arrive as Python floats or per-row arrays",
    "dsp._hz_to_mel": "band edges arrive as Python floats",
}


def test_array_arguments_are_not_recoerced():
    sources = sorted(PACKAGE.glob("*.py"))
    promoted = [site for path in sources for name in ("atleast_1d", "atleast_2d")
                for site in call_sites(path, name)]
    assert promoted == []
    found = {site for path in sources for site in call_sites(path, "asarray")}
    assert sorted(found) == sorted(ASARRAY_SITES)


def zero_dim_tests(path: Path) -> list[str]:
    """``module.function`` for each comparison of an ``ndim`` attribute or
    ``np.ndim`` call with 0, on either side, named by the innermost function."""

    def is_ndim(node):
        return names(node.func if isinstance(node, ast.Call) else node, "ndim")

    def is_zero(node):
        return isinstance(node, ast.Constant) and node.value == 0

    def tests_zero_dim(node):
        if not isinstance(node, ast.Compare):
            return False
        operands = [node.left, *node.comparators]
        return any((is_ndim(a) and is_zero(b)) or (is_zero(a) and is_ndim(b))
                   for a, b in zip(operands, operands[1:]))

    return matching_sites(path, tests_zero_dim)


def test_zero_dim_scan_names_each_comparison(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(a):\n    return a.ndim == 0\n"
                    "def g(a):\n    return 0 != a.ndim, a.ndim == 1, a.size == 0\n"
                    "def h(a):\n    return a.ndim > 0, np.ndim(a) == 1\n"
                    "def k(a):\n    return np.ndim(a) == 0\n")
    assert zero_dim_tests(path) == ["mod.f", "mod.g", "mod.h", "mod.k"]


def test_no_result_forks_on_a_zero_dim_input():
    # A scalar time gives NumPy float64 scalars, which are floats; a caller
    # that needs Python floats (the selftest's report) converts what it reads.
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in zero_dim_tests(path)]
    assert found == []


# Every function in src/ whose results are cached, with why the cache pays.
# Other helpers recompute what they return, so a new cache needs a
# deliberate entry here.
CACHED = {
    "cli._build_parser": "building the parser takes about 0.6 ms, against a 2-3 ms "
                         "64-row sample call",
    "toys._reference_within_sum": "a scoring pass scores many candidates against one "
                                  "reference set",
}
CACHE_DECORATORS = {"lru_cache", "cache"}


def cached_functions(path: Path) -> list[str]:
    """``module.function`` for each function decorated with ``lru_cache`` or
    ``cache``, bare or as a ``functools`` attribute, called or not."""

    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        return (isinstance(node, ast.Name) and node.id in CACHE_DECORATORS) or (
            isinstance(node, ast.Attribute) and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name) and node.value.id == "functools")

    return [f"{path.stem}.{node.name}" for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(is_cache(d) for d in node.decorator_list)]


def test_cache_scan_names_each_decorated_function(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import functools\nfrom functools import cache, lru_cache\n"
                    "@lru_cache(maxsize=1)\ndef a():\n    pass\n"
                    "@functools.cache\ndef b():\n    pass\n"
                    "@functools.lru_cache\ndef c():\n    pass\n"
                    "class K:\n    @cache\n    def d(self):\n        pass\n"
                    "@obj.cache\ndef e():\n    pass\n"
                    "@staticmethod\ndef f():\n    lru_cache(g)\n")
    assert cached_functions(path) == ["mod.a", "mod.b", "mod.c", "mod.d"]


def test_caches_are_the_listed_ones():
    found = [name for path in sorted(PACKAGE.glob("*.py"))
             for name in cached_functions(path)]
    assert sorted(found) == sorted(CACHED)


def test_only_main_returns_the_usage_code():
    # A command raises ConfigError for a usage or config error, and main
    # alone turns it into exit code 2.
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Return) and isinstance(child.value, ast.Constant) \
                    and child.value.value == 2:
                found.append(where)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, where)

    visit(ast.parse((PACKAGE / "cli.py").read_text()), "<module>")
    assert found == ["main"]


def test_denoiser_params_have_one_construction_path():
    # A fresh network is drawn by net.draw_denoiser; a run's online net is
    # laid over its flat vector by config.model.  Copies (the training
    # loop's EMA target among them), zeroed moments and gradients are
    # ``replace(p, flat=...)`` of these.
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in call_sites(path, "DenoiserParams")]
    assert sorted(found) == ["config.model", "net.draw_denoiser"]


# ``np.half``/``np.single`` as attributes only: ``half`` is also a local name.
NARROW_ATTRS = {"float32", "float16", "single", "half"}
NARROW_NAMES = {"float32", "float16"}
NARROW_CODES = re.compile(r"[<>=|]?f[24]|float(16|32)|single|half")


def narrow_float_sites(path: Path) -> list[str]:
    """``module.function`` for each name, attribute or dtype string that
    spells a float narrower than float64, named by the innermost function."""
    return matching_sites(path, lambda node: (
        (isinstance(node, ast.Name) and node.id in NARROW_NAMES)
        or (isinstance(node, ast.Attribute) and node.attr in NARROW_ATTRS)
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and NARROW_CODES.fullmatch(node.value) is not None)))


def test_narrow_float_scan_names_each_spelling(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\nx = np.half\n"
                    "def g(a):\n    return a.astype(np.float32), a.view('<f4')\n"
                    "def h(a, half):\n    return np.float64(a), 'a float32 word', 'f8'\n")
    assert narrow_float_sites(path) == ["mod.<module>", "mod.g", "mod.g"]


def test_float32_is_cast_at_one_site():
    # The checkpoint writer casts the online net to float32 once and the
    # reader reads it back as float32, the net sample runs; the network
    # follows its parameters' dtype, and every other computation runs in
    # float64.  The grid file stores float32 features, read back to float64
    # at once.
    found = [site for path in sorted(PACKAGE.glob("*.py"))
             for site in narrow_float_sites(path)]
    assert sorted(found) == ["net.load_checkpoint", "net.save_checkpoint",
                             "spatial.read_grid", "spatial.write_grid"]


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
