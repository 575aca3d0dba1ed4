"""Benchmark entry point for the stereobridge system.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {train,sample,audio} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop with one client that waits for every reply.
The end-to-end figures go through the user's entry points: ``stereobridge
.cli.main`` in-process for ``train-toy``, ``sample`` and ``eval``, and the
public ``spatial``/``dsp`` functions for conditioning, which has no command.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries per-layer calls and self times, recorded by wrapping
the listed public functions at every import site (see ``layers.json``).

The program is imported from ``src/`` of the checkout this file sits in; a
directory without it is refused with exit code 2 before any work starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "sample", "audio")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; return the cap.

    Must run before NumPy is imported, because BLAS reads these variables
    once at load time.  A smaller value already in the environment is kept.
    """
    nproc = len(os.sched_getaffinity(0))
    cap = nproc
    for var in BLAS_THREAD_VARS:
        try:
            cap = min(cap, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "stereobridge" / "__init__.py").is_file():
        print(f"error: no stereobridge sources under {ROOT / 'src'}; run from "
              "a full checkout", file=sys.stderr)
        return 2
    cap = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import harness  # noqa: E402  (NumPy must load after the thread cap)
    import workloads  # noqa: E402

    if not harness.imported_from(ROOT / "src"):
        print("error: stereobridge was not imported from this checkout",
              file=sys.stderr)
        return 2

    machine = harness.machine_record(cap)
    print(json.dumps({"machine": machine}, sort_keys=True), flush=True)

    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, work, args.seed, args.seconds,
                               bool(args.trace), ROOT / ".perfbench_out")
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    for line in result.report_lines:
        print(line)
    print(json.dumps(result.line(), sort_keys=True))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
