"""Run configuration: one validated JSON file drives every command.

The file is strict on purpose: unknown keys are rejected with their
location, every value is type- and range-checked before any work starts,
and environment variables never override anything, so a config file plus a
seed fully determines a run.  ``schema_version`` gates forward
compatibility.

The :class:`RunConfig` field list is the one copy of the file layout: each
field names its section, its key and its range check, and parsing,
:meth:`RunConfig.to_dict` and validation all derive from it.

A checkpoint carries its run config beside the online net: :func:`load_run`
validates it as a config file is validated and builds the network layout,
schedule, grid and toy problem from it alone.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import net
from .consistency import ConsistencyModel
from .schedule import NoiseSchedule, TimeGrid
from .toys import GaussianMixture, ToyProblem

SCHEMA_VERSION = 1

# The most parameters a denoiser may hold (the recipe's holds 118,658).
MAX_DENOISER_PARAMETERS = 1_000_000


class ConfigError(ValueError):
    """A config file failed validation; ``location`` names the bad key."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


# ---------------------------------------------------------------------------
# Typed view
# ---------------------------------------------------------------------------

def _setting(default, section: str, check=None, key: str | None = None):
    """A :class:`RunConfig` field: its default, where it sits in the file
    (``section.key``; the key defaults to the field name), and an optional
    ``(predicate, message)`` range check."""
    return field(default=default,
                 metadata={"section": section, "key": key, "check": check})


# The toy section is checked as a whole, by RunConfig.toy_problem().
_TOY = "toy"
_POSITIVE = (lambda v: v > 0, "must be positive")


def _count(low: int, high: int):
    """Range check for an integer setting in [low, high]."""
    return (lambda v: low <= v <= high, f"must lie in [{low}, {high:,}]")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for a training run and the sampling it supports.

    The field defaults are the reference recipe, and its only copy: the toy
    trainer reads every setting from a ``RunConfig``.  The recipe was tuned
    so a short CPU run reaches one-step sample quality close to the analytic
    reference sampler.

    The field declarations are also the file layout and the range checks.
    Construction runs every check, so each ``RunConfig`` is valid, one made
    by :func:`dataclasses.replace` included; a bad value raises
    :class:`ConfigError` naming its key.
    """

    beta0: float = _setting(NoiseSchedule.beta0, "schedule", _POSITIVE)
    beta1: float = _setting(NoiseSchedule.beta1, "schedule", _POSITIVE)
    n_steps: int = _setting(12, "grid", _count(1, 1000))
    t_min: float = _setting(TimeGrid.t_min, "grid", (lambda v: v > 0.0,
                                                     "must be strictly positive"))
    t_max: float = _setting(TimeGrid.t_max, "grid", (
        lambda v: v < 1.0,
        "must be strictly below 1 (the bridge variance vanishes there)"))
    hidden: int = _setting(192, "model", _count(1, 4096))
    depth: int = _setting(4, "model", _count(2, 64))
    time_embed_dim: int = _setting(32, "model", (
        lambda v: 2 <= v <= 1024 and v % 2 == 0,
        "must be an even integer in [2, 1,024]"))
    sigma_data: float = _setting(1.0, "model", _POSITIVE)
    lr: float = _setting(3e-3, "optimizer", _POSITIVE)
    final_lr: float = _setting(1e-5, "optimizer", (lambda v: v >= 0,
                                                   "must be nonnegative"))
    flat_fraction: float = _setting(0.6, "optimizer", (
        lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]"))
    adam_beta2: float = _setting(0.99, "optimizer", (
        lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"))
    ema_decay: float = _setting(0.8, "optimizer", (
        lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"))
    toy_means: tuple = _setting(((-2.0, 0.0), (2.0, 0.0)), _TOY, key="means")
    toy_sigmas: tuple = _setting((0.5, 0.5), _TOY, key="sigmas")
    toy_weights: tuple = _setting((0.5, 0.5), _TOY, key="weights")
    prior_sigma: float = _setting(1.0, _TOY)
    steps: int = _setting(5000, "run", _count(1, 1_000_000))
    batch_size: int = _setting(16, "run", _count(1, 1024))
    seed: int = _setting(21, "run", (lambda v: v >= 0, "must be nonnegative"))
    probe_step: int = _setting(100, "run")

    def __post_init__(self):
        for section, keyed in _LAYOUT.items():
            for key, f in keyed.items():
                if f.metadata["check"] is not None:
                    predicate, message = f.metadata["check"]
                    if not predicate(getattr(self, f.name)):
                        raise ConfigError(f"{section}.{key}", message)
        if not self.t_min < self.t_max:
            raise ConfigError("grid.t_max", "must exceed t_min")
        if not 1 <= self.probe_step <= self.steps:
            raise ConfigError("run.probe_step", "must fall inside the run")
        try:
            size = net.parameter_count(self.layer_widths())
        except (ValueError, TypeError) as exc:
            raise ConfigError(_TOY, str(exc)) from exc
        if size > MAX_DENOISER_PARAMETERS:
            raise ConfigError("model.hidden", (
                f"gives a denoiser of {size:,} parameters at depth {self.depth}; "
                f"at most {MAX_DENOISER_PARAMETERS:,} allowed"))

    def schedule(self) -> NoiseSchedule:
        return NoiseSchedule(beta0=self.beta0, beta1=self.beta1)

    def time_grid(self) -> TimeGrid:
        return TimeGrid(self.n_steps, self.t_min, self.t_max)

    def toy_problem(self) -> ToyProblem:
        mixture = GaussianMixture(self.toy_means, self.toy_sigmas, self.toy_weights)
        return ToyProblem(mixture=mixture, prior_sigma=self.prior_sigma)

    def layer_widths(self) -> tuple:
        """The denoiser's widths: the toy's state, conditioned on a state of
        the same dimension."""
        dim = self.toy_problem().dim
        return net.layer_widths(dim, dim, self.hidden, self.depth, self.time_embed_dim)

    def model(self, online: np.ndarray) -> ConsistencyModel:
        """This run's model: the online net laid over ``online`` without a
        copy, the grid, and the node table of the run's schedule and
        ``sigma_data``; training and the checkpoint reader build theirs here.
        A vector that does not fit the layers raises ``ValueError``."""
        params = net.DenoiserParams(online, self.layer_widths(), self.time_embed_dim)
        return ConsistencyModel(params, sched=self.schedule(), grid=self.time_grid(),
                                sigma_data=self.sigma_data)

    def to_dict(self) -> dict:
        out = {"schema_version": SCHEMA_VERSION}
        for section, keyed in _LAYOUT.items():
            out[section] = {key: _to_json(getattr(self, f.name))
                            for key, f in keyed.items()}
        return out

    def to_json(self) -> str:
        """:meth:`to_dict` as canonical JSON, with sorted keys."""
        return json.dumps(self.to_dict(), sort_keys=True)

    def config_hash(self) -> str:
        """Short content hash for report provenance."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:12]


def _layout() -> dict:
    """Section -> key -> field, in declaration order."""
    layout = {}
    for f in fields(RunConfig):
        layout.setdefault(f.metadata["section"], {})[f.metadata["key"] or f.name] = f
    return layout


_LAYOUT = _layout()


def _to_json(value):
    return [_to_json(v) for v in value] if isinstance(value, tuple) else value


def default_config() -> RunConfig:
    return RunConfig()


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _require_mapping(raw, location):
    if not isinstance(raw, dict):
        raise ConfigError(location, f"expected an object, got {type(raw).__name__}")
    return raw


def _reject_unknown(raw: dict, allowed, location: str):
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        key = str(unknown[0])
        raise ConfigError(f"{location}.{key}" if location else key, "unknown key")


def _typed(value, default, location: str):
    """``value`` checked to have the JSON type of ``default``.

    Numbers become finite floats, an integer default takes an integer
    that is not a boolean, and a tuple default takes a list whose elements
    are checked against the default's first element.
    """
    if isinstance(default, tuple):
        if not isinstance(value, list):
            raise ConfigError(location, f"expected a list, got {value!r}")
        return tuple(_typed(v, default[0], location) for v in value)
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(location, f"expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(location, "must be finite")
        return number
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(location, f"expected an integer, got {value!r}")
    return value


def parse_config(raw: dict, source: str = "<config>") -> RunConfig:
    """Validate a parsed JSON object and return the typed view.

    Raises :class:`ConfigError` naming the offending key for any unknown
    key, wrong type, or out-of-range value.  Unknown keys and types are
    checked here, ranges by :class:`RunConfig` itself, so validation is
    complete before the function returns — commands never start work on a
    half-checked config.
    """
    raw = _require_mapping(raw, source)
    _reject_unknown(raw, {"schema_version", *_LAYOUT}, "")
    if "schema_version" not in raw:
        raise ConfigError("schema_version", "required")
    version = _typed(raw["schema_version"], SCHEMA_VERSION, "schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version",
                          f"unsupported version {version}, expected {SCHEMA_VERSION}")

    values = {}
    for section, keyed in _LAYOUT.items():
        body = _require_mapping(raw.get(section, {}), section)
        _reject_unknown(body, keyed, section)
        for key, value in body.items():
            f = keyed[key]
            values[f.name] = _typed(value, f.default, f"{section}.{key}")
    return RunConfig(**values)


def _decode(blob: bytes, source: str) -> RunConfig:
    """Validate UTF-8 JSON bytes as a run config; ``source`` names them."""
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integers past Python's digit limit; RecursionError, deep nesting.
        raise ConfigError(source, f"invalid JSON: {exc}") from exc
    return parse_config(raw, source=source)


def load_config(path) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ConfigError(str(path), f"cannot read config: {exc}") from exc
    return _decode(blob, str(path))


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_run(path, cfg: RunConfig, model: ConsistencyModel, step: int) -> None:
    """Checkpoint the optimizer step, the config as canonical JSON and the
    float32 online net in :func:`stereobridge.net.save_checkpoint`'s container."""
    net.save_checkpoint(path, step, cfg.to_json().encode(), model.online.flat)


def load_run(path) -> tuple:
    """``(cfg, model, step)`` from a checkpoint written by :func:`save_run`,
    its online net float32; a fault in the container or the config raises
    ``ValueError``."""
    step, blob, online = net.load_checkpoint(path)
    cfg = _decode(blob, f"{path} run config")
    return cfg, cfg.model(online), step
