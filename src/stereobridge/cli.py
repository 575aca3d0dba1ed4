"""Batch command line: self-tests, toy training, sampling, evaluation.

Four subcommands cover the artifact's operational surface:

* ``selftest-bridge`` — run the analytic invariant suite (endpoint pinning,
  posterior moments, score oracle, integrator convergence) and emit a JSON
  report with one entry per named invariant.
* ``train-toy`` — config-driven toy training; writes a checkpoint, a
  per-step loss CSV, and run metadata recording every documented
  substitution in effect.
* ``sample`` — load a checkpoint and generate with a fixed evaluation
  budget under the run config the checkpoint carries; writes a sample CSV
  and a timing record with explicit function-evaluation accounting.
* ``eval`` — score aligned reference/synthesis audio pairs by MCD, LRE and
  RTE; needs no config, and writes per-pair JSON plus an aggregate CSV,
  flagging failed pairs while keeping partial results.

Every command writes into ``--out``, ``runs`` when it is not given.  Every
command is deterministic for a fixed seed and config; wall-clock fields are
the only exception and are marked as such in the reports.  Exit codes: 0
success, 1 check or metric failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bridge import (
    BridgeSample,
    DivergenceError,
    Endpoints,
    analytic_posterior_score,
    integrate_pf_ode,
    posterior_moments,
    sample_posterior,
)
from .config import ConfigError, RunConfig, default_config, load_config, load_run, save_run
from .consistency import nfe_times
from .dsp import log_mel, mel_cepstra, read_wav
from .metrics import (
    MCD_ORDER,
    MetricReport,
    lre,
    mcd,
    rt60_schroeder,
    rte,
    write_aggregate_csv,
)
from .net import TrainingError
from .schedule import accumulated_variances, bridge_coefficients
from .toys import run_toy_training, toy_sample

# Documented stand-ins of the toy training run relative to the full-scale
# system; recorded in every training metadata file so results are
# interpretable.  Scoring audio with ``eval`` uses none of them.
SUBSTITUTIONS = {
    "distance": "squared L2 in place of a learned perceptual distance",
    "loss_weighting": "uniform weighting (lambda == 1) across grid times",
    "schedule": "linear rate schedule with config-set endpoints",
    "training_scale": "desk-scale toy run instead of full corpus training",
}

CHECKPOINT_EVERY = 500
# The most samples one ``sample`` call draws.  Its network runs in float32
# over row blocks and keeps only the last hidden activation whole, so each
# row adds about 0.84 KB to the traced peak at the recipe's width (1.03 KB
# at 4096 rows), whatever the depth (0.67 KB at hidden 120, depth 64, 4096
# rows): an NFE-8 call this size traces about 84 MB and peaks near 156 MiB
# RSS.
MAX_SAMPLE_COUNT = 100_000


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _with_seed(args, cfg: RunConfig) -> RunConfig:
    if getattr(args, "seed", None) is not None:
        if args.seed < 0:
            raise ConfigError("--seed", f"must be nonnegative, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _load_run_config(args) -> RunConfig:
    return _with_seed(args, load_config(args.config) if args.config else default_config())


def _out_dir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create output directory {str(out)!r}: {exc}") from exc
    return out


def _write(path: Path, writer, *args) -> None:
    """Every output file goes through here as ``writer(path, *args)``.  A
    file that cannot be written (a directory in its place, no permission, a
    full disk) is a config error naming it, as an output directory that
    cannot be created is."""
    try:
        writer(path, *args)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot write output file: {exc}") from exc


def _json_file(path: Path, payload: dict) -> None:
    # JSON has no NaN or Infinity, so such a figure is written as null.
    payload = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# selftest-bridge
# ---------------------------------------------------------------------------

def _check_endpoint_pinning(cfg: RunConfig) -> tuple:
    """The state collapses onto x0 at the bottom of the grid and x1 at the top."""
    sched = cfg.schedule()
    rng = np.random.default_rng(101)
    x0 = rng.normal(size=16)
    x1 = rng.normal(size=16)
    z = rng.standard_normal(16)
    ep = Endpoints(x0, x1)
    detail = {}
    passed = True
    for t, anchor, budget, label in ((cfg.t_min, x0, 0.2, "bottom"),
                                     (cfg.t_max, x1, 1.0, "top")):
        a, b, v = map(float, bridge_coefficients(sched, t))
        weight = b if label == "bottom" else a
        bound = abs(weight) * float(np.max(np.abs(x1 - x0))) \
            + math.sqrt(v) * float(np.max(np.abs(z)))
        dev = float(np.max(np.abs(sample_posterior(ep, t, sched, z).x - anchor)))
        detail[label] = {"deviation": dev, "bound": bound}
        passed = passed and dev <= bound + 1e-12 and bound < budget
    return passed, detail


def _check_posterior_moments(cfg: RunConfig) -> tuple:
    """Monte-Carlo mean/variance of ``sample_posterior`` draws agree with
    the closed form within 4 SE."""
    sched = cfg.schedule()
    rng = np.random.default_rng(202)
    ep = Endpoints(rng.normal(size=16), rng.normal(size=16))
    n = 20_000
    batch_ep = Endpoints(np.tile(ep.x0, (n, 1)), np.tile(ep.x1, (n, 1)))
    worst_mean = 0.0
    worst_var = 0.0
    for t in rng.uniform(0.05, 0.95, size=5):
        mu, v = posterior_moments(ep, float(t), sched)
        draws = sample_posterior(batch_ep, float(t), sched, rng.standard_normal((n, 16))).x
        se_mean = math.sqrt(v / n)
        se_var = v * math.sqrt(2.0 / (n - 1))
        # np.maximum keeps a NaN figure, which then fails the check; the
        # builtin max would drop it.
        worst_mean = np.maximum(worst_mean, float(
            np.max(np.abs(draws.mean(axis=0) - mu)) / se_mean))
        worst_var = np.maximum(worst_var, float(
            np.max(np.abs(draws.var(axis=0, ddof=1) - v)) / se_var))
    passed = bool(worst_mean <= 4.0 and worst_var <= 4.0)
    return passed, {"worst_mean_z": float(worst_mean), "worst_var_z": float(worst_var)}


def _check_score_oracle(cfg: RunConfig) -> tuple:
    """Analytic posterior score vs finite differences of the log density."""
    sched = cfg.schedule()
    rng = np.random.default_rng(303)
    dim = 4
    ep = Endpoints(rng.normal(size=dim), rng.normal(size=dim))
    h = 1e-6
    worst = 0.0
    for _ in range(200):
        t = float(rng.uniform(0.05, 0.95))
        mu, v = posterior_moments(ep, t, sched)
        v = float(v)
        x = mu + math.sqrt(v) * rng.standard_normal(dim)
        analytic = analytic_posterior_score(x, ep, t, sched)

        def logpdf(p):
            return -0.5 * float(np.sum((p - mu) ** 2)) / v

        fd = np.empty(dim)
        for axis in range(dim):
            e = np.zeros(dim)
            e[axis] = h
            fd[axis] = (logpdf(x + e) - logpdf(x - e)) / (2 * h)
        denom = max(float(np.linalg.norm(fd)), 1e-30)
        worst = np.maximum(worst, float(np.linalg.norm(analytic - fd)) / denom)
    return bool(worst <= 1e-6), {"worst_rel_err": float(worst)}


def _check_ode_convergence(cfg: RunConfig) -> tuple:
    """Second-order convergence to, and agreement at 256 steps with, the
    closed form of :func:`stereobridge.bridge.pf_ode_drift`'s flow, at the
    configured schedule."""
    sched = cfg.schedule()
    t0, t1 = 0.9, 0.1
    xs = np.array([3.0])
    x1 = np.array([-1.0])
    start = BridgeSample(xs, t0)
    (s0, sb0), (s1, sb1) = (map(float, accumulated_variances(sched, t)) for t in (t0, t1))
    exact = x1 + (xs - x1) * math.sqrt((sb1 / s1) * (s0 / sb0))

    def error(steps):
        return float(np.abs(integrate_pf_ode(start, t1, steps, x1, sched).x - exact)[0])

    rel_err = float(error(256) / np.abs(exact)[0])
    errs = [error(steps) for steps in (32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    passed = rel_err <= 1e-4 and min(orders) >= 1.9
    return passed, {"rel_err_256": rel_err, "orders": orders}


# Each invariant's report name and check; a check returns (passed, detail).
INVARIANTS = (
    ("endpoint-pinning", _check_endpoint_pinning),
    ("posterior-moments", _check_posterior_moments),
    ("score-oracle", _check_score_oracle),
    ("ode-convergence", _check_ode_convergence),
)


def cmd_selftest_bridge(args) -> int:
    """Run every invariant and report each; one that raises ``ValueError``,
    ``ArithmeticError`` or :class:`~stereobridge.bridge.DivergenceError` (a
    schedule too extreme for it, say) fails with the message as its
    detail, and the others still run."""
    cfg = _load_run_config(args)
    out = _out_dir(args)
    invariants = []
    for name, check in INVARIANTS:
        try:
            passed, detail = check(cfg)
        except (ValueError, ArithmeticError, DivergenceError) as exc:
            passed, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        invariants.append({"name": name, "passed": passed, "detail": detail})
    passed = all(entry["passed"] for entry in invariants)
    report = {
        "command": "selftest-bridge",
        "config_hash": cfg.config_hash(),
        "passed": passed,
        "invariants": invariants,
    }
    _write(out / "bridge_selftest.json", _json_file, report)
    for entry in invariants:
        print(f"{'PASS' if entry['passed'] else 'FAIL'} {entry['name']}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def _loss_csv(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("step,loss,wall_ms\n")
        for step, loss, wall in rows:
            fh.write(f"{step},{loss:.17g},{wall:.3f}\n")


def cmd_train_toy(args) -> int:
    cfg = _load_run_config(args)
    out = _out_dir(args)
    ckpt_path = out / "model.ckpt"

    rows = []

    def callback(step, model, loss, wall_ms):
        if step == 1 or step % CHECKPOINT_EVERY == 0 or step == cfg.steps:
            _write(ckpt_path, save_run, cfg, model, step)
        rows.append((step, loss, wall_ms))

    meta = {
        "command": "train-toy",
        "config": cfg.to_dict(),
        "config_hash": cfg.config_hash(),
        "substitutions": SUBSTITUTIONS,
        "nondeterministic_fields": ["wall_ms", "wall_seconds"],
    }
    try:
        result = run_toy_training(cfg, step_callback=callback)
    except TrainingError as exc:
        # Step 1 saves before it counts, so this run left a checkpoint exactly
        # when one of its steps completed; an older file in ``out`` is not ours.
        meta.update({
            "status": "aborted",
            "error": str(exc),
            "checkpoint_retained": bool(rows),
        })
        code, message = 1, f"training aborted after {len(rows)} steps: {exc}"
    else:
        meta.update({
            "status": "completed",
            "wall_seconds": result.wall_s,
            "spread": {
                "probe_step": cfg.probe_step,
                "at_probe_step": result.spread_probe,
                "final": result.spread_final,
            },
            "loss": {
                "first_50_mean": float(np.mean(result.losses[:50])),
                "last_50_mean": float(np.mean(result.losses[-50:])),
            },
        })
        code, message = 0, f"trained {len(rows)} steps; checkpoint at {ckpt_path}"
    meta["completed_steps"] = len(rows)
    _write(out / "loss.csv", _loss_csv, rows)
    _write(out / "train_meta.json", _json_file, meta)
    print(message, file=sys.stderr if code else sys.stdout)
    return code


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _check_budget(grid, nfe: int) -> None:
    try:
        nfe_times(grid, nfe)
    except ValueError as exc:
        raise ConfigError("--nfe", str(exc)) from exc


def _check_agrees(given: RunConfig, run: RunConfig) -> None:
    """Raise naming the first model-defining key where the configs differ."""
    mine, theirs = given.to_dict(), run.to_dict()
    for section in ("schedule", "grid", "model", "toy"):
        for key, value in mine[section].items():
            if value != theirs[section][key]:
                raise ConfigError(f"{section}.{key}", "--config and the "
                                  "checkpoint's run config do not match")


def _samples_csv(path: Path, samples: np.ndarray) -> None:
    """The bytes ``np.savetxt(fmt="%.17g", delimiter=",", comments="")``
    writes under a ``c0,c1,...`` header, formatted by one ``%`` over the
    whole array."""
    count, cols = samples.shape
    row = ",".join(["%.17g"] * cols) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(f"c{i}" for i in range(cols)) + "\n")
        fh.write(row * count % tuple(samples.ravel().tolist()))


def cmd_sample(args) -> int:
    """Sample under the checkpoint's run at the seed ``--seed``, else a
    ``--config``, else the run gives.  A ``--config`` must agree with the
    run on every model-defining section and supplies only the seed, so the
    timing record hashes the checkpoint's run at the sampling seed.  The
    network runs in the checkpoint's float32, the bridge state in float64."""
    if not 1 <= args.count <= MAX_SAMPLE_COUNT:
        raise ConfigError("--count", f"must lie in [1, {MAX_SAMPLE_COUNT:,}], got {args.count}")
    given = _load_run_config(args) if args.config else None
    if given is not None:
        # Its usage errors end the call before the checkpoint is opened.
        _check_budget(given.time_grid(), args.nfe)
        _out_dir(args)
    try:
        run, model, step = load_run(args.checkpoint)
    except (OSError, ValueError) as exc:
        print(f"cannot load checkpoint: {exc}", file=sys.stderr)
        return 1
    if given is not None:
        _check_agrees(given, run)
    cfg = _with_seed(args, run) if given is None else replace(run, seed=given.seed)
    _check_budget(model.grid, args.nfe)
    out = _out_dir(args)
    t_begin = time.perf_counter()
    try:
        samples = toy_sample(model, cfg.toy_problem(), args.count,
                             np.random.default_rng(cfg.seed), args.nfe)
    except TrainingError as exc:
        print(f"sampling failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t_begin
    used = model.eval_count
    if used != args.nfe:
        print(f"evaluation accounting failed: budget {args.nfe}, "
              f"recorded {used}", file=sys.stderr)
        return 1

    sample_path = out / f"samples_nfe{args.nfe}.csv"
    _write(sample_path, _samples_csv, samples)
    timing = {
        "command": "sample",
        "checkpoint_step": step,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "nfe": args.nfe,
        "network_evaluations": used,
        "sample_count": samples.shape[0],
        "wall_seconds": wall,
        "samples_per_second": samples.shape[0] / wall if wall > 0 else None,
        "nondeterministic_fields": ["wall_seconds", "samples_per_second"],
    }
    _write(out / f"timing_nfe{args.nfe}.json", _json_file, timing)
    print(f"wrote {samples.shape[0]} samples to {sample_path}")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _evaluate_pair(ref_path: str, syn_path: str) -> MetricReport:
    ref = read_wav(ref_path)
    syn = read_wav(syn_path)
    mel_ref = log_mel(ref)
    mel_syn = log_mel(syn)
    if mel_ref.shape[0] != mel_syn.shape[0]:
        raise ValueError(
            f"channel counts differ: {mel_ref.shape[0]} vs {mel_syn.shape[0]}"
        )
    mcd_db = float(np.mean([
        mcd(mel_cepstra(mel_ref[ch], MCD_ORDER), mel_cepstra(mel_syn[ch], MCD_ORDER))
        for ch in range(mel_ref.shape[0])
    ]))
    lre_db = lre(ref, syn)
    # Stereo here (lre checked); bitwise samples.mean(axis=1), without its row loop.
    rt_ref, rt_syn = (rt60_schroeder((w.samples[:, 0] + w.samples[:, 1]) / 2, w.rate)
                      for w in (ref, syn))
    return MetricReport(
        mcd_db=mcd_db,
        lre_db=lre_db,
        rte_s=rte(rt_ref, rt_syn),
    )


def cmd_eval(args) -> int:
    if len(args.ref) != len(args.syn):
        raise ConfigError("--syn", f"must align with --ref ({len(args.syn)} vs "
                          f"{len(args.ref)} paths)")
    out = _out_dir(args)
    rows = []
    failures = []
    for i, (ref_path, syn_path) in enumerate(zip(args.ref, args.syn)):
        name = f"pair_{i:03d}"
        entry = {"ref": str(ref_path), "syn": str(syn_path)}
        try:
            report = _evaluate_pair(ref_path, syn_path)
        except (OSError, ValueError) as exc:
            entry["error"] = str(exc)
            failures.append(entry)
        else:
            entry["report"] = report.to_dict()
            rows.append((Path(syn_path).stem, report))
        _write(out / f"{name}.json", _json_file, entry)
    _write(out / "aggregate.csv", write_aggregate_csv, rows)
    _write(out / "eval_summary.json", _json_file, {
        "command": "eval",
        "pairs": len(args.ref),
        "evaluated": len(rows),
        "failures": failures,
    })
    print(f"evaluated {len(rows)}/{len(args.ref)} pairs"
          + (f"; {len(failures)} failed" if failures else ""))
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# Built once per process: nothing mutates the parser, and argparse reuses it.
@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stereobridge",
        description="Bridge self-tests, toy training, sampling, and "
                    "metric evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest-bridge",
                       help="run the analytic invariant suite")
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.set_defaults(func=cmd_selftest_bridge)

    p = sub.add_parser("train-toy", help="train the toy consistency model")
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("sample", help="generate from a trained checkpoint")
    p.add_argument("--config", help="path to a JSON config file")
    p.add_argument("--checkpoint", required=True,
                   help="checkpoint written by train-toy")
    p.add_argument("--nfe", type=int, choices=(1, 2, 4, 8), default=1,
                   help="network evaluations per sample")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--count", type=int, default=4096,
                   help="number of samples to draw")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("eval", help="score reference/synthesis audio pairs")
    p.add_argument("--ref", nargs="+", required=True,
                   help="reference WAV paths")
    p.add_argument("--syn", nargs="+", required=True,
                   help="synthesized WAV paths, aligned with --ref")
    p.add_argument("--out", default="runs", help="output directory (default: runs)")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
