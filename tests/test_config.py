import json
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from stereobridge.config import (
    MAX_DENOISER_PARAMETERS,
    ConfigError,
    SCHEMA_VERSION,
    default_config,
    load_config,
    parse_config,
)
from stereobridge.net import init_denoiser
from stereobridge.schedule import NoiseSchedule, make_grid

README = Path(__file__).resolve().parents[1] / "README.md"

# Every key set to a valid value that differs from its default.
NON_DEFAULT = {
    "schema_version": SCHEMA_VERSION,
    "schedule": {"beta0": 0.2, "beta1": 15.0},
    "grid": {"n_steps": 8, "t_min": 0.01, "t_max": 0.9},
    "model": {"hidden": 24, "depth": 3, "time_embed_dim": 6, "sigma_data": 0.5},
    "optimizer": {"lr": 1e-3, "final_lr": 1e-4, "flat_fraction": 0.5,
                  "adam_beta2": 0.999, "ema_decay": 0.9},
    "toy": {"means": [[-1.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.0, 2.0]],
            "sigmas": [0.2, 0.3, 0.4], "weights": [0.25, 0.25, 0.5],
            "prior_sigma": 0.7},
    "run": {"steps": 300, "batch_size": 8, "seed": 5, "probe_step": 30},
}

# json.dumps(default_config().to_dict(), sort_keys=True): train_meta.json
# and every checkpoint carry it.
DEFAULT_LAYOUT = (
    '{"grid": {"n_steps": 12, "t_max": 0.999, "t_min": 0.001}, '
    '"model": {"depth": 4, "hidden": 192, "sigma_data": 1.0, "time_embed_dim": 32}, '
    '"optimizer": {"adam_beta2": 0.99, "ema_decay": 0.8, "final_lr": 1e-05, '
    '"flat_fraction": 0.6, "lr": 0.003}, '
    '"run": {"batch_size": 16, "probe_step": 100, "seed": 21, "steps": 5000}, '
    '"schedule": {"beta0": 0.1, "beta1": 20.0}, "schema_version": 1, '
    '"toy": {"means": [[-2.0, 0.0], [2.0, 0.0]], "prior_sigma": 1.0, '
    '"sigmas": [0.5, 0.5], "weights": [0.5, 0.5]}}'
)


def minimal(**sections):
    raw = {"schema_version": SCHEMA_VERSION}
    raw.update(sections)
    return raw


def test_defaults_round_trip():
    cfg = default_config()
    assert parse_config(cfg.to_dict()) == cfg

    custom = parse_config(NON_DEFAULT)
    assert custom.to_dict() == NON_DEFAULT
    assert parse_config(custom.to_dict()) == custom
    assert len(fields(custom)) == 22
    assert [f.name for f in fields(custom)
            if getattr(custom, f.name) == getattr(cfg, f.name)] == []
    # each key lands in its own field, not merely somewhere that round-trips
    for section, body in NON_DEFAULT.items():
        if section == "schema_version":
            continue
        for key, value in body.items():
            name = f"toy_{key}" if key in ("means", "sigmas", "weights") else key
            assert json.loads(json.dumps(getattr(custom, name))) == value


def test_default_layout_and_hash_are_pinned():
    cfg = default_config()
    assert cfg.config_hash() == "0822ac2c9d73"
    assert json.dumps(cfg.to_dict(), sort_keys=True) == DEFAULT_LAYOUT


@pytest.mark.parametrize("changes, location", [
    (dict(t_min=0.5, t_max=0.4), "grid.t_max"),
    (dict(seed=-1), "run.seed"),
    (dict(toy_weights=(0.5, 0.6)), "toy"),
])
def test_built_config_validates_itself(changes, location):
    with pytest.raises(ConfigError) as exc:
        replace(default_config(), **changes)
    assert exc.value.location == location


def test_readme_config_example_parses():
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    parse_config(json.loads(blocks[0]))


def test_default_values_pin_the_reference_run():
    cfg = default_config()
    assert cfg.steps == 5000
    assert cfg.batch_size == 16
    assert cfg.n_steps == 12
    assert (cfg.beta0, cfg.beta1) == (0.1, 20.0)
    assert cfg.toy_problem().mixture.n_components == 2


def test_empty_sections_get_defaults():
    assert parse_config(minimal()) == default_config()


def test_schema_version_is_required():
    with pytest.raises(ConfigError) as exc:
        parse_config({})
    assert exc.value.location == "schema_version"


def test_schema_version_must_match():
    with pytest.raises(ConfigError):
        parse_config({"schema_version": SCHEMA_VERSION + 1})
    with pytest.raises(ConfigError):
        parse_config({"schema_version": "1"})


def test_unknown_keys_are_rejected_with_location():
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal(extra={}))
    assert exc.value.location == "extra"
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal(optimizer={"lr": 1e-3, "momentum": 0.9}))
    assert exc.value.location == "optimizer.momentum"


def test_type_errors_name_the_key():
    cases = [
        ({"optimizer": {"lr": True}}, "optimizer.lr"),
        ({"run": {"steps": 5.5}}, "run.steps"),
        ({"run": {"seed": True}}, "run.seed"),
        ({"grid": {"n_steps": "12"}}, "grid.n_steps"),
        ({"schedule": {"beta0": float("nan")}}, "schedule.beta0"),
    ]
    for section, location in cases:
        with pytest.raises(ConfigError) as exc:
            parse_config(minimal(**section))
        assert exc.value.location == location


def test_range_validation():
    bad = [
        {"grid": {"t_max": 1.0}},
        {"grid": {"t_min": 0.0}},
        {"grid": {"t_min": 0.9, "t_max": 0.5}},
        {"grid": {"n_steps": 0}},
        {"schedule": {"beta0": -1.0}},
        {"model": {"hidden": 0}},
        {"model": {"depth": 1}},
        {"model": {"time_embed_dim": 7}},
        {"model": {"sigma_data": 0.0}},
        {"optimizer": {"flat_fraction": 0.0}},
        {"optimizer": {"ema_decay": 1.0}},
        {"optimizer": {"adam_beta2": 1.0}},
        {"run": {"steps": 10, "probe_step": 11}},
        {"run": {"batch_size": 0}},
        {"run": {"seed": -1}},
        {"toy": {"means": [[]], "sigmas": [0.5], "weights": [1.0]}},
    ]
    for section in bad:
        with pytest.raises(ConfigError):
            parse_config(minimal(**section))


def test_toy_section_delegates_to_mixture_validation():
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal(toy={"weights": [0.5, 0.6]}))
    assert exc.value.location == "toy"
    with pytest.raises(ConfigError):
        parse_config(minimal(toy={"prior_sigma": -0.5}))


def denoiser_size(hidden, depth, time_embed_dim=32, dim=2):
    return init_denoiser(np.random.default_rng(0), data_dim=dim, cond_dim=dim,
                         hidden=hidden, depth=depth,
                         time_embed_dim=time_embed_dim).flat.size


def test_denoiser_parameter_limit():
    cfg = default_config()
    assert denoiser_size(cfg.hidden, cfg.depth, cfg.time_embed_dim) == 118_658
    assert denoiser_size(512, 4) <= MAX_DENOISER_PARAMETERS
    parse_config(minimal(model={"hidden": 512}))
    # Two more layers of that width pass the limit; the message counts the
    # parameters the built network would hold.
    too_big = denoiser_size(512, 6)
    assert too_big > MAX_DENOISER_PARAMETERS
    with pytest.raises(ConfigError) as exc:
        parse_config(minimal(model={"hidden": 512, "depth": 6}))
    assert exc.value.location == "model.hidden"
    assert f"{too_big:,} parameters" in str(exc.value)


def test_custom_toy_geometry_parses():
    cfg = parse_config(minimal(toy={
        "means": [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        "sigmas": [0.3, 0.4],
        "weights": [0.25, 0.75],
        "prior_sigma": 2.0,
    }))
    prob = cfg.toy_problem()
    assert prob.dim == 3
    assert prob.prior_sigma == 2.0
    assert prob.mixture.sigmas == pytest.approx([0.3, 0.4])


def test_recipe_schedule_and_grid_are_the_library_defaults():
    # Criterion 05 builds NoiseSchedule() and make_grid(12) beside
    # default_config(); the two agree because the config reads their defaults.
    cfg = default_config()
    assert cfg.schedule() == NoiseSchedule()
    assert cfg.time_grid() == make_grid(12)
    assert np.array_equal(cfg.time_grid().nodes, make_grid(12).nodes)


def test_builders_produce_consistent_objects():
    cfg = default_config()
    grid = cfg.time_grid()
    assert grid.n_steps == cfg.n_steps
    assert len(grid.nodes) == cfg.n_steps + 1
    assert grid.t_min == cfg.t_min and grid.t_max == cfg.t_max
    sched = cfg.schedule()
    assert (sched.beta0, sched.beta1) == (cfg.beta0, cfg.beta1)


def test_config_hash_tracks_content():
    a = default_config()
    b = parse_config(minimal(run={"seed": 99}))
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == default_config().config_hash()
    assert len(a.config_hash()) == 12


def test_load_config_file_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal(run={"steps": 42, "probe_step": 7})))
    cfg = load_config(path)
    assert cfg.steps == 42
    assert cfg.probe_step == 7


def test_load_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_numpy_values_do_not_sneak_past_validation():
    # JSON never produces numpy scalars, but dict-level callers might.
    with pytest.raises(ConfigError):
        parse_config(minimal(run={"steps": np.float64(10)}))
