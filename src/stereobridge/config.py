"""Run configuration: one validated JSON file drives every command.

The file is strict on purpose: unknown keys are rejected with their
location, every value is type- and range-checked before any work starts,
and environment variables never override anything, so a config file plus a
seed fully determines a run.  ``schema_version`` gates forward
compatibility.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .dsp import N_MELS
from .schedule import NoiseSchedule, TimeGrid, make_grid
from .toys import GaussianMixture, ToyProblem

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """A config file failed validation; ``location`` names the bad key."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


# ---------------------------------------------------------------------------
# Typed view
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """Validated settings for training, sampling, and evaluation.

    The field defaults are the reference recipe, and its only copy: the toy
    trainer reads every setting from a ``RunConfig``.  The recipe was tuned
    so a short CPU run reaches one-step sample quality close to the analytic
    reference sampler.
    """

    # schedule
    beta0: float = 0.1
    beta1: float = 20.0
    # time grid
    n_steps: int = 12
    t_min: float = 0.001
    t_max: float = 0.999
    # model
    hidden: int = 192
    depth: int = 4
    time_embed_dim: int = 32
    sigma_data: float = 1.0
    # optimizer
    lr: float = 3e-3
    final_lr: float = 1e-5
    flat_fraction: float = 0.6
    adam_beta2: float = 0.99
    ema_decay: float = 0.8
    # toy dataset
    toy_means: tuple = ((-2.0, 0.0), (2.0, 0.0))
    toy_sigmas: tuple = (0.5, 0.5)
    toy_weights: tuple = (0.5, 0.5)
    prior_sigma: float = 1.0
    # run
    steps: int = 5000
    batch_size: int = 16
    seed: int = 21
    probe_step: int = 100
    # metrics
    lre_linear: bool = False
    cepstral_k: int = 13
    # io
    out_dir: str = "runs"

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(beta0=self.beta0, beta1=self.beta1)

    def time_grid(self) -> TimeGrid:
        return make_grid(self.n_steps, self.t_min, self.t_max)

    def toy_problem(self) -> ToyProblem:
        mixture = GaussianMixture(
            means=np.array(self.toy_means, dtype=np.float64),
            sigmas=np.array(self.toy_sigmas, dtype=np.float64),
            weights=np.array(self.toy_weights, dtype=np.float64),
        )
        return ToyProblem(mixture=mixture, prior_sigma=self.prior_sigma)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "schedule": {"beta0": self.beta0, "beta1": self.beta1},
            "grid": {"n_steps": self.n_steps, "t_min": self.t_min,
                     "t_max": self.t_max},
            "model": {"hidden": self.hidden, "depth": self.depth,
                      "time_embed_dim": self.time_embed_dim,
                      "sigma_data": self.sigma_data},
            "optimizer": {"lr": self.lr, "final_lr": self.final_lr,
                          "flat_fraction": self.flat_fraction,
                          "adam_beta2": self.adam_beta2,
                          "ema_decay": self.ema_decay},
            "toy": {"means": [list(m) for m in self.toy_means],
                    "sigmas": list(self.toy_sigmas),
                    "weights": list(self.toy_weights),
                    "prior_sigma": self.prior_sigma},
            "run": {"steps": self.steps, "batch_size": self.batch_size,
                    "seed": self.seed, "probe_step": self.probe_step},
            "metrics": {"lre_linear": self.lre_linear,
                        "cepstral_k": self.cepstral_k},
            "io": {"out_dir": self.out_dir},
        }

    def config_hash(self) -> str:
        """Short content hash for report provenance."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:12]


def default_config() -> RunConfig:
    return RunConfig()


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def _require_mapping(raw, location):
    if not isinstance(raw, dict):
        raise ConfigError(location, f"expected an object, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: dict, allowed, location: str):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ConfigError(_key_location(location, str(unknown[0])), "unknown key")


def _key_location(location: str, key: str) -> str:
    return f"{location}.{key}" if location else key


def _get_number(raw: dict, key: str, location: str, default):
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(_key_location(location, key),
                          f"expected a number, got {v!r}")
    if not np.isfinite(v):
        raise ConfigError(_key_location(location, key), "must be finite")
    return float(v)


def _get_int(raw: dict, key: str, location: str, default):
    v = raw.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(_key_location(location, key),
                          f"expected an integer, got {v!r}")
    return v


def _get_bool(raw: dict, key: str, location: str, default):
    v = raw.get(key, default)
    if not isinstance(v, bool):
        raise ConfigError(_key_location(location, key),
                          f"expected a boolean, got {v!r}")
    return v


def _check(cond: bool, location: str, message: str):
    if not cond:
        raise ConfigError(location, message)


def parse_config(raw: dict, source: str = "<config>") -> RunConfig:
    """Validate a parsed JSON object and return the typed view.

    Raises :class:`ConfigError` naming the offending key for any unknown
    key, wrong type, or out-of-range value.  Validation is complete before
    the function returns — commands never start work on a half-checked
    config.
    """
    d = default_config()
    raw = _require_mapping(raw, source)
    _reject_unknown(raw, {"schema_version", "schedule", "grid", "model",
                          "optimizer", "toy", "run", "metrics", "io"}, "")

    if "schema_version" not in raw:
        raise ConfigError("schema_version", "required")
    version = _get_int(raw, "schema_version", "", None)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"unsupported version {version}, expected {SCHEMA_VERSION}")

    sched = _require_mapping(raw.get("schedule", {}), "schedule")
    _reject_unknown(sched, {"beta0", "beta1"}, "schedule")
    beta0 = _get_number(sched, "beta0", "schedule", d.beta0)
    beta1 = _get_number(sched, "beta1", "schedule", d.beta1)
    _check(beta0 > 0, "schedule.beta0", "must be positive")
    _check(beta1 > 0, "schedule.beta1", "must be positive")

    grid = _require_mapping(raw.get("grid", {}), "grid")
    _reject_unknown(grid, {"n_steps", "t_min", "t_max"}, "grid")
    n_steps = _get_int(grid, "n_steps", "grid", d.n_steps)
    t_min = _get_number(grid, "t_min", "grid", d.t_min)
    t_max = _get_number(grid, "t_max", "grid", d.t_max)
    _check(n_steps >= 1, "grid.n_steps", "must be at least 1")
    _check(0.0 < t_min, "grid.t_min", "must be strictly positive")
    _check(t_min < t_max, "grid.t_max", "must exceed t_min")
    _check(t_max < 1.0, "grid.t_max",
           "must be strictly below 1 (the bridge variance vanishes there)")

    model = _require_mapping(raw.get("model", {}), "model")
    _reject_unknown(model, {"hidden", "depth", "time_embed_dim", "sigma_data"},
                    "model")
    hidden = _get_int(model, "hidden", "model", d.hidden)
    depth = _get_int(model, "depth", "model", d.depth)
    time_embed_dim = _get_int(model, "time_embed_dim", "model", d.time_embed_dim)
    sigma_data = _get_number(model, "sigma_data", "model", d.sigma_data)
    _check(hidden >= 1, "model.hidden", "must be at least 1")
    _check(depth >= 2, "model.depth", "must be at least 2")
    _check(time_embed_dim >= 2 and time_embed_dim % 2 == 0,
           "model.time_embed_dim", "must be an even integer >= 2")
    _check(sigma_data > 0, "model.sigma_data", "must be positive")

    opt = _require_mapping(raw.get("optimizer", {}), "optimizer")
    _reject_unknown(opt, {"lr", "final_lr", "flat_fraction", "adam_beta2",
                          "ema_decay"}, "optimizer")
    lr = _get_number(opt, "lr", "optimizer", d.lr)
    final_lr = _get_number(opt, "final_lr", "optimizer", d.final_lr)
    flat_fraction = _get_number(opt, "flat_fraction", "optimizer", d.flat_fraction)
    adam_beta2 = _get_number(opt, "adam_beta2", "optimizer", d.adam_beta2)
    ema_decay = _get_number(opt, "ema_decay", "optimizer", d.ema_decay)
    _check(lr > 0, "optimizer.lr", "must be positive")
    _check(final_lr >= 0, "optimizer.final_lr", "must be nonnegative")
    _check(0.0 < flat_fraction <= 1.0, "optimizer.flat_fraction",
           "must lie in (0, 1]")
    _check(0.0 < adam_beta2 < 1.0, "optimizer.adam_beta2", "must lie in (0, 1)")
    _check(0.0 <= ema_decay < 1.0, "optimizer.ema_decay", "must lie in [0, 1)")

    toy = _require_mapping(raw.get("toy", {}), "toy")
    _reject_unknown(toy, {"means", "sigmas", "weights", "prior_sigma"}, "toy")
    means = toy.get("means", [list(m) for m in d.toy_means])
    sigmas = toy.get("sigmas", list(d.toy_sigmas))
    weights = toy.get("weights", list(d.toy_weights))
    prior_sigma = _get_number(toy, "prior_sigma", "toy", d.prior_sigma)
    try:
        mixture = GaussianMixture(
            means=np.asarray(means, dtype=np.float64),
            sigmas=np.asarray(sigmas, dtype=np.float64),
            weights=np.asarray(weights, dtype=np.float64),
        )
        ToyProblem(mixture=mixture, prior_sigma=prior_sigma)
    except (ValueError, TypeError) as exc:
        raise ConfigError("toy", str(exc)) from exc

    run = _require_mapping(raw.get("run", {}), "run")
    _reject_unknown(run, {"steps", "batch_size", "seed", "probe_step"}, "run")
    steps = _get_int(run, "steps", "run", d.steps)
    batch_size = _get_int(run, "batch_size", "run", d.batch_size)
    seed = _get_int(run, "seed", "run", d.seed)
    probe_step = _get_int(run, "probe_step", "run", d.probe_step)
    _check(steps >= 1, "run.steps", "must be at least 1")
    _check(batch_size >= 1, "run.batch_size", "must be at least 1")
    _check(seed >= 0, "run.seed", "must be nonnegative")
    _check(1 <= probe_step <= steps, "run.probe_step",
           "must fall inside the run")

    metrics = _require_mapping(raw.get("metrics", {}), "metrics")
    _reject_unknown(metrics, {"lre_linear", "cepstral_k"}, "metrics")
    lre_linear = _get_bool(metrics, "lre_linear", "metrics", d.lre_linear)
    cepstral_k = _get_int(metrics, "cepstral_k", "metrics", d.cepstral_k)
    _check(2 <= cepstral_k <= N_MELS, "metrics.cepstral_k",
           f"must lie in [2, {N_MELS}], the mel band count")

    io = _require_mapping(raw.get("io", {}), "io")
    _reject_unknown(io, {"out_dir"}, "io")
    out_dir = io.get("out_dir", d.out_dir)
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("io.out_dir", "must be a nonempty string")

    return RunConfig(
        beta0=beta0, beta1=beta1,
        n_steps=n_steps, t_min=t_min, t_max=t_max,
        hidden=hidden, depth=depth, time_embed_dim=time_embed_dim,
        sigma_data=sigma_data,
        lr=lr, final_lr=final_lr, flat_fraction=flat_fraction,
        adam_beta2=adam_beta2, ema_decay=ema_decay,
        toy_means=tuple(tuple(float(v) for v in m) for m in means),
        toy_sigmas=tuple(float(v) for v in sigmas),
        toy_weights=tuple(float(v) for v in weights),
        prior_sigma=prior_sigma,
        steps=steps, batch_size=batch_size, seed=seed, probe_step=probe_step,
        lre_linear=lre_linear, cepstral_k=cepstral_k,
        out_dir=out_dir,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(str(path), f"invalid JSON: {exc}") from exc
    return parse_config(raw, source=str(path))
