"""Shared plumbing: in-process CLI calls, failure accounting, tracing, and
the machine record."""

from __future__ import annotations

import ctypes
import functools
import io
import json
import os
import platform
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import stereobridge
from stereobridge import (  # noqa: F401  (load every module before tracing)
    bridge, cli, config, consistency, dsp, metrics, net, schedule, spatial, toys,
)

LAYERS_FILE = Path(__file__).resolve().parent / "layers.json"


def load_layers() -> dict:
    """The traced functions, the layer-to-metric map and the issue names."""
    return json.loads(LAYERS_FILE.read_text())


def imported_from(src: Path) -> bool:
    return Path(stereobridge.__file__).resolve().parent == (src / "stereobridge").resolve()


# ---------------------------------------------------------------------------
# Calls and checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    """An output did not match its oracle or documented behaviour."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class CliReply:
    code: int
    stderr: str
    wall_s: float


def call_cli(argv) -> CliReply:
    """Run ``stereobridge.cli.main`` in-process and time it.

    The command's stdout is discarded so the result line stays last; its
    stderr is kept for error messages.  ``cli.main`` is looked up at call
    time so a traced run sees the wrapped command functions.
    """
    err = io.StringIO()
    argv = [str(a) for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        t0 = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - t0
    return CliReply(code, err.getvalue(), wall)


class Ops:
    """Attempted/failed operation counts; a failure never stops the loop."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, fn, *args):
        """Call ``fn(*args)``; return its value, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            print(f"FAILED {label}: {exc}", file=sys.stderr)
        except Exception:
            print(f"FAILED {label}: unexpected exception", file=sys.stderr)
            traceback.print_exc()
        self.failed += 1
        return None


def median(values) -> float:
    values = list(values)
    if not values:
        raise CheckFailed("no samples to take a median of")
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Wrap the listed functions at every import site and record spans.

    A span is ``[request, name, parent_index, start_s, end_s]``; spans stay
    in memory until :meth:`dump`.  Self time is a span's duration minus the
    time covered by its direct child spans.
    """

    def __init__(self, names):
        self.names = list(names)
        self.stats = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        self.rows = 0
        self.flop = 0
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "stereobridge" or name.startswith("stereobridge.")]
        for qual in self.names:
            mod_name, fn_name = qual.split(".")
            original = getattr(sys.modules[f"stereobridge.{mod_name}"], fn_name)
            wrapped = self._wrap(qual, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patches.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        stat = self.stats[name]
        spans, stack = self.spans, self._stack
        count_flops = name == "net.forward_with_cache"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_flops:
                rows = np.atleast_2d(np.asarray(args[1])).shape[0]
                self.rows += rows
                self.flop += 2 * rows * sum(w.size for w in args[0].weights)
            index = len(spans)
            spans.append([self.request, name, stack[-1][0] if stack else -1, 0.0, 0.0])
            frame = [index, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                stat["calls"] += 1
                stat["self_s"] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
                spans[index][3] = t0
                spans[index][4] = t1

        return traced

    def self_total_s(self) -> float:
        return sum(s["self_s"] for s in self.stats.values())

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for req, name, parent, t0, t1 in self.spans:
                fh.write(json.dumps([req, name, parent, round(t0 * 1e3, 4),
                                     round(t1 * 1e3, 4)]) + "\n")


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_runtime_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def machine_record(thread_cap: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    runtime = _blas_runtime_threads()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": runtime if runtime is not None else thread_cap,
        "blas_thread_cap": thread_cap,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


# ---------------------------------------------------------------------------
# Result line
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict                     # name -> (value, unit)
    report_lines: list = field(default_factory=list)

    def line(self) -> dict:
        return {
            "correct": bool(self.correct),
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": float(v), "unit": unit}
                        for name, (v, unit) in self.metrics.items()},
        }
