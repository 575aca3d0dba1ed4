import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stereobridge
from stereobridge import bridge, cli, consistency, metrics
from stereobridge.cli import _samples_csv, main
from stereobridge.config import load_config, load_run, save_run
from stereobridge.dsp import StereoWaveform, read_wav, write_wav
from stereobridge.metrics import exponential_ir
from stereobridge.net import load_checkpoint, save_checkpoint
from stereobridge.toys import (
    bridge_marginal_logpdf,
    posterior_mixing,
    run_toy_training,
    toy_sample,
)

RATE = 22050


@pytest.fixture
def tiny_config(tmp_path):
    """A config small enough that training takes well under a second."""
    raw = {
        "schema_version": 1,
        "run": {"steps": 50, "batch_size": 4, "probe_step": 10, "seed": 3},
        "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8},
    }
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(raw))
    return path


def read_report(path):
    """A JSON file the CLI wrote, parsed as strict JSON: NaN, Infinity and
    -Infinity are not JSON and fail the parse."""
    def reject(token):
        raise ValueError(f"{path} holds {token}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=reject)


def write_decaying_stereo(path, gain_left=1.0, tau=0.3, seed=0):
    """A reverberation-style stereo file whose decay rate is fittable."""
    left = exponential_ir(tau, RATE, 1.0, np.random.default_rng(seed))
    right = exponential_ir(tau, RATE, 1.0, np.random.default_rng(seed + 1))
    # 0.1 leaves headroom so a doubled channel still avoids PCM clipping
    samples = np.stack([left * gain_left, right], axis=1) * 0.1
    write_wav(path, StereoWaveform(samples, RATE))


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_bad_nfe_choice_is_usage_error(capsys):
    assert main(["sample", "--checkpoint", "x.ckpt", "--nfe", "3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["selftest-bridge", "train-toy"])
@pytest.mark.parametrize("body", [
    b"\xff\xfe{",                            # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,         # nesting past the recursion limit
    b'{"schema_version": ' + b"9" * 5000 + b"}",  # integer past the digit limit
], ids=["not-utf8", "deep-nesting", "huge-integer"])
def test_undecodable_config_exits_two(command, body, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert str(bad) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


HUGE = "1" + "0" * 399   # a valid JSON integer too large for a float


@pytest.mark.parametrize("command", ["selftest-bridge", "train-toy"])
@pytest.mark.parametrize("section, key", [
    ('"toy": {"weights": [NaN, NaN]}', "toy.weights"),
    ('"toy": {"means": [[' + HUGE + ', 0.0], [2.0, 0.0]]}', "toy.means"),
    ('"optimizer": {"lr": ' + HUGE + '}', "optimizer.lr"),
    ('"toy": {"means": [[true, false], [false, true]]}', "toy.means"),
    ('"run": {"steps": 1' + "0" * 400 + '}', "run.steps"),
    ('"model": {"hidden": 100000000000}', "model.hidden"),
    ('"model": {"time_embed_dim": 1000000000000}', "model.time_embed_dim"),
    ('"run": {"batch_size": 1000000000000}', "run.batch_size"),
    ('"grid": {"n_steps": 1000000000000}', "grid.n_steps"),
    ('"model": {"depth": 100000000}', "model.depth"),
    ('"grid": 5', "grid: expected an object, got int"),
    ('"toy": {"means": 5}', "toy.means: expected a list, got 5"),
], ids=["nan-weights", "huge-integer-mean", "huge-integer-lr", "boolean-means",
        "huge-steps", "huge-hidden", "huge-time-embed-dim", "huge-batch-size",
        "huge-n-steps", "huge-depth", "number-for-section", "number-for-list"])
def test_unusable_number_exits_two(command, section, key, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": 1, ' + section + '}')
    assert main([command, "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["selftest-bridge", "train-toy", "sample"])
@pytest.mark.parametrize("section", ["io", "metrics"])
def test_config_with_a_removed_section_exits_two(command, section, tmp_path, capsys):
    # Output paths come from --out and the metric settings are constants; a
    # config that still carries either section is rejected, not read.
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps({"schema_version": 1, section: {}}))
    extra = ["--checkpoint", str(tmp_path / "absent.ckpt")] if command == "sample" else []
    assert main([command, "--config", str(bad), *extra,
                 "--out", str(tmp_path / "out")]) == 2
    assert f"{section}: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--config", "--nfe"])
def test_eval_takes_no_config_or_budget(flag, tmp_path, capsys):
    assert main(["eval", "--ref", "a.wav", "--syn", "b.wav", flag, "1",
                 "--out", str(tmp_path / "ev")]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()


def test_config_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 1, "grid": {"t_max": 1.0}}))
    assert main(["selftest-bridge", "--config", str(bad),
                 "--out", str(tmp_path / "st")]) == 2
    err = capsys.readouterr().err
    assert "grid.t_max" in err
    # validation fails before any work starts
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize("command", ["selftest-bridge", "train-toy", "sample", "eval"])
def test_out_path_that_is_a_file_is_usage_error(command, tiny_config, tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    extra = {"selftest-bridge": [],
             "train-toy": ["--config", str(tiny_config)],
             "sample": ["--config", str(tiny_config), "--checkpoint", "absent.ckpt"],
             "eval": ["--ref", "absent.wav", "--syn", "absent.wav"]}[command]
    assert main([command, *extra, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert "--out" in err and str(taken) in err
    assert taken.read_text() == "not a directory"


@pytest.mark.parametrize("command, name", [
    ("selftest-bridge", "bridge_selftest.json"),
    ("train-toy", "model.ckpt"),
    ("sample", "samples_nfe1.csv"),
    ("eval", "pair_000.json"),
])
def test_output_file_that_is_a_directory_is_usage_error(
        command, name, tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    if command == "sample":
        assert main(["train-toy", "--config", str(tiny_config),
                     "--out", str(tmp_path / "run")]) == 0
    if command == "eval":
        write_decaying_stereo(tmp_path / "ref.wav")
    extra = {"selftest-bridge": [],
             "train-toy": ["--config", str(tiny_config)],
             "sample": ["--checkpoint", str(tmp_path / "run" / "model.ckpt"),
                        "--count", "8"],
             "eval": ["--ref", str(tmp_path / "ref.wav"),
                      "--syn", str(tmp_path / "ref.wav")]}[command]
    assert main([command, *extra, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(out / name) in err
    assert (out / name).is_dir()


@pytest.mark.parametrize("command", ["train-toy", "sample"])
def test_negative_seed_is_usage_error(command, tiny_config, tmp_path, capsys):
    extra = ["--checkpoint", str(tmp_path / "absent.ckpt")] if command == "sample" else []
    rc = main([command, "--config", str(tiny_config), *extra, "--seed", "-1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_console_module_entry():
    src = Path(stereobridge.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "stereobridge.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "selftest-bridge" in proc.stdout


# ---------------------------------------------------------------------------
# selftest-bridge
# ---------------------------------------------------------------------------

def test_selftest_bridge_passes_default_config(tmp_path, capsys):
    out = tmp_path / "st"
    assert main(["selftest-bridge", "--out", str(out)]) == 0
    report = read_report(out / "bridge_selftest.json")
    assert report["passed"] is True
    names = [entry["name"] for entry in report["invariants"]]
    assert names == ["endpoint-pinning", "posterior-moments",
                     "score-oracle", "ode-convergence"]
    assert all(entry["passed"] for entry in report["invariants"])
    stdout = capsys.readouterr().out
    assert stdout.count("PASS") == 4


def test_selftest_bridge_fails_a_wrong_bridge_state(tmp_path, monkeypatch, capsys):
    # An error that vanishes at both ends leaves endpoint pinning intact;
    # the moments check draws through sample_posterior, so it must see it.
    def skewed(a, b, sqrt_cap_sigma2, x0, x1, z):
        return a * x0 + b * x1 + sqrt_cap_sigma2 * z + 0.5 * a * b * (x1 - x0)

    monkeypatch.setattr(bridge, "bridge_state", skewed)
    out = tmp_path / "st"
    assert main(["selftest-bridge", "--out", str(out)]) == 1
    report = read_report(out / "bridge_selftest.json")
    entries = {entry["name"]: entry for entry in report["invariants"]}
    assert entries["posterior-moments"]["passed"] is False
    assert "FAIL posterior-moments" in capsys.readouterr().out


def run_selftest_on_schedule(schedule, tmp_path):
    """``(exit code, {name: entry})`` for selftest-bridge on a schedule
    section."""
    cfg = tmp_path / "sched.json"
    cfg.write_text(json.dumps({"schema_version": 1, "schedule": schedule}))
    out = tmp_path / "st"
    rc = main(["selftest-bridge", "--config", str(cfg), "--out", str(out)])
    report = read_report(out / "bridge_selftest.json")
    assert report["passed"] is False
    return rc, {entry["name"]: entry for entry in report["invariants"]}


def test_selftest_bridge_reports_a_raising_check(tmp_path, capsys):
    # At beta = 1e-20 the bridge variance is ~1e-21, under the floor the
    # score refuses to divide by: that check fails, the rest still run.
    rc, entries = run_selftest_on_schedule({"beta0": 1e-20, "beta1": 1e-20}, tmp_path)
    assert rc == 1
    assert list(entries) == ["endpoint-pinning", "posterior-moments",
                             "score-oracle", "ode-convergence"]
    failed = entries["score-oracle"]
    assert failed["passed"] is False
    assert "NearEndpointError" in failed["detail"]["error"]
    assert entries["endpoint-pinning"]["passed"] is True
    assert "FAIL score-oracle" in capsys.readouterr().out


# NumPy warns of the overflow before the bridge state's finiteness check
# raises; the test is about the report, so only that warning is let through.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_selftest_bridge_reports_an_overflowing_schedule(tmp_path, capsys):
    rc, entries = run_selftest_on_schedule({"beta0": 1e300, "beta1": 1e300}, tmp_path)
    assert rc == 1
    failed = entries["endpoint-pinning"]
    assert failed["passed"] is False
    assert "must be finite" in failed["detail"]["error"]
    assert len(entries) == 4
    # Their figures are NaN here, and a NaN figure fails its check; the
    # report writes it as null.
    assert entries["posterior-moments"]["passed"] is False
    assert entries["score-oracle"]["passed"] is False
    assert entries["score-oracle"]["detail"] == {"worst_rel_err": None}
    # The ODE check's closed form takes its variance ratios before their
    # product, so its figures stay finite and it fails on them.
    ode = entries["ode-convergence"]
    assert ode["passed"] is False
    figures = [ode["detail"]["rel_err_256"], *ode["detail"]["orders"]]
    assert all(isinstance(x, float) and math.isfinite(x) for x in figures)
    capsys.readouterr()


# The smallest subnormal rate at both ends is a valid config; the moments
# check divides by a standard error that underflows to zero, so NumPy warns
# and its z-scores are infinite.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_selftest_bridge_reports_a_subnormal_schedule(tmp_path, capsys):
    rc, entries = run_selftest_on_schedule({"beta0": 5e-324, "beta1": 5e-324}, tmp_path)
    assert rc == 1
    assert len(entries) == 4
    assert entries["endpoint-pinning"]["passed"] is True
    failed = entries["posterior-moments"]
    assert failed["passed"] is False
    assert failed["detail"] == {"worst_mean_z": None, "worst_var_z": None}
    capsys.readouterr()


# The largest finite rate at one end of an otherwise default schedule is a
# valid config; the ODE check's integration then diverges.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("end", ["beta0", "beta1"])
def test_selftest_bridge_reports_a_diverging_integration(end, tmp_path, capsys):
    rc, entries = run_selftest_on_schedule({end: 1.7e308}, tmp_path)
    assert rc == 1
    assert len(entries) == 4
    failed = entries["ode-convergence"]
    assert failed["passed"] is False
    assert failed["detail"]["error"].startswith("DivergenceError: non-finite state")
    assert "FAIL ode-convergence" in capsys.readouterr().out


def test_selftest_bridge_integrates_at_most_256_steps(tmp_path, monkeypatch, capsys):
    # The ODE check measures its orders against the closed form it already
    # computes, so it runs no long reference integration.
    integrate = cli.integrate_pf_ode
    steps = []

    def spy(start, t_end, n, x1, sched):
        steps.append(n)
        return integrate(start, t_end, n, x1, sched)

    monkeypatch.setattr(cli, "integrate_pf_ode", spy)
    assert main(["selftest-bridge", "--out", str(tmp_path / "st")]) == 0
    capsys.readouterr()
    assert steps and max(steps) <= 256


# ---------------------------------------------------------------------------
# train-toy
# ---------------------------------------------------------------------------

def test_train_toy_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-toy", "--config", str(tiny_config),
                 "--out", str(out)]) == 0
    capsys.readouterr()

    lines = (out / "loss.csv").read_text().splitlines()
    assert lines[0] == "step,loss,wall_ms"
    assert len(lines) - 1 == 50
    assert lines[1].startswith("1,")
    assert lines[-1].startswith("50,")

    meta = read_report(out / "train_meta.json")
    assert meta["status"] == "completed"
    assert meta["completed_steps"] == 50
    assert set(meta["substitutions"]) == {
        "distance", "loss_weighting", "schedule", "training_scale"}
    assert meta["spread"]["probe_step"] == 10
    assert "wall_ms" in meta["nondeterministic_fields"]

    cfg, model, step = load_run(out / "model.ckpt")
    assert cfg.to_dict() == meta["config"]
    assert step == 50
    assert model.online.data_dim == 2
    assert cfg.ema_decay == meta["config"]["optimizer"]["ema_decay"]


def test_out_is_not_part_of_the_run(tiny_config, tmp_path, monkeypatch, capsys):
    # The checkpoint stores no output path, so a sample call without --out
    # writes under ./runs, not into the training run's directory.
    out = tmp_path / "elsewhere"
    assert main(["train-toy", "--config", str(tiny_config), "--out", str(out)]) == 0
    blob = load_checkpoint(out / "model.ckpt")[1]
    assert str(out).encode() not in blob
    assert set(json.loads(blob)) == {"schema_version", "schedule", "grid", "model",
                                     "optimizer", "toy", "run"}
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--checkpoint", str(out / "model.ckpt"), "--count", "8"]) == 0
    capsys.readouterr()
    assert (tmp_path / "runs" / "samples_nfe1.csv").exists()
    assert sorted(p.name for p in out.iterdir()) == [
        "loss.csv", "model.ckpt", "train_meta.json"]


def test_train_toy_checkpoints_are_reproducible(tiny_config, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train-toy", "--config", str(tiny_config), "--out", str(a)]) == 0
    assert main(["train-toy", "--config", str(tiny_config), "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()


def test_train_toy_seed_flag_overrides_config(tiny_config, tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["train-toy", "--config", str(tiny_config), "--out", str(a)]) == 0
    assert main(["train-toy", "--config", str(tiny_config), "--out", str(b),
                 "--seed", "4"]) == 0
    capsys.readouterr()
    assert (a / "model.ckpt").read_bytes() != (b / "model.ckpt").read_bytes()


def test_train_toy_writes_its_last_checkpoint_once(tmp_path, monkeypatch, capsys):
    # A checkpoint at step 1, every CHECKPOINT_EVERY steps and the last step,
    # each written once.
    saved = []

    def spy(path, cfg, model, step):
        saved.append(step)
        save_run(path, cfg, model, step)

    monkeypatch.setattr(cli, "save_run", spy)
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "run": {"steps": 1000, "batch_size": 4, "probe_step": 10, "seed": 3},
        "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8},
    }))
    out = tmp_path / "run"
    assert main(["train-toy", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert cli.CHECKPOINT_EVERY == 500
    assert saved == [1, 500, 1000]
    assert load_run(out / "model.ckpt")[2] == 1000


def exploding_run(tmp_path, lr, depth):
    """Run train-toy at a constant learning rate ``lr``; returns the exit
    code, the output directory and its metadata."""
    raw = {
        "schema_version": 1,
        "run": {"steps": 500, "batch_size": 4, "probe_step": 1},
        "model": {"hidden": 16, "depth": depth, "time_embed_dim": 8},
        "optimizer": {"lr": lr, "final_lr": lr},
    }
    cfg = tmp_path / "explode.json"
    cfg.write_text(json.dumps(raw))
    out = tmp_path / "boom"
    with np.errstate(all="ignore"):
        rc = main(["train-toy", "--config", str(cfg), "--out", str(out)])
    lines = (out / "loss.csv").read_text().splitlines()
    meta = read_report(out / "train_meta.json")
    assert meta["status"] == "aborted"
    assert len(lines) - 1 == meta["completed_steps"]
    return rc, out, meta


def test_train_toy_aborts_on_nonfinite_loss(tmp_path, capsys):
    # lr 1e300: step 1's net reaches 1e300, which no float32 checkpoint
    # holds, so its checkpoint is refused and the step does not complete.
    rc, out, meta = exploding_run(tmp_path, 1e300, 2)
    capsys.readouterr()
    assert rc == 1
    assert meta["completed_steps"] == 0
    assert meta["checkpoint_retained"] is False
    assert not (out / "model.ckpt").exists()
    assert "float32" in meta["error"]


def test_train_toy_aborts_on_nonfinite_loss_keeping_its_checkpoint(tmp_path, capsys):
    # lr 1e37 at depth 4: step 1's net peaks at 1.0e37, within float32, and
    # the loss goes non-finite at step 3.
    rc, out, meta = exploding_run(tmp_path, 1e37, 4)
    capsys.readouterr()
    assert rc == 1
    assert meta["completed_steps"] == 2
    assert meta["checkpoint_retained"] is True
    # the retained checkpoint predates the failure and still loads
    assert load_run(out / "model.ckpt")[2] == 1


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

@pytest.fixture
def trained(tiny_config, tmp_path, capsys):
    out = tmp_path / "trained"
    assert main(["train-toy", "--config", str(tiny_config),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    return out / "model.ckpt"


def test_train_toy_abort_at_step_one_claims_no_older_checkpoint(
        trained, tmp_path, capsys):
    # Another run's checkpoint already sits in --out; this run's first step
    # fails, so it saved nothing and its record must not name that file.
    out = tmp_path / "reused"
    out.mkdir()
    older = trained.read_bytes()
    (out / "model.ckpt").write_bytes(older)
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({
        "schema_version": 1,
        "run": {"steps": 5, "batch_size": 4, "probe_step": 1},
        "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8},
        "toy": {"means": [[1e300, 0.0], [-1e300, 0.0]]},
    }))
    with np.errstate(all="ignore"):
        rc = main(["train-toy", "--config", str(cfg), "--out", str(out)])
    assert rc == 1
    assert "training aborted after 0 steps" in capsys.readouterr().err
    meta = read_report(out / "train_meta.json")
    assert meta["status"] == "aborted"
    assert meta["completed_steps"] == 0
    assert meta["checkpoint_retained"] is False
    assert (out / "model.ckpt").read_bytes() == older
    assert (out / "loss.csv").read_text() == "step,loss,wall_ms\n"


def test_sample_writes_samples_and_timing(tiny_config, trained, tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sample", "--config", str(tiny_config),
                 "--checkpoint", str(trained), "--nfe", "1",
                 "--count", "64", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "samples_nfe1.csv").read_text().splitlines()
    assert lines[0] == "c0,c1"
    assert len(lines) - 1 == 64
    timing = read_report(out / "timing_nfe1.json")
    assert timing["nfe"] == 1
    assert timing["network_evaluations"] == 1
    assert timing["checkpoint_step"] == 50
    assert timing["sample_count"] == 64
    assert "wall_seconds" in timing["nondeterministic_fields"]


def test_sample_is_deterministic_per_seed(tiny_config, trained, tmp_path, capsys):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sample", "--config", str(tiny_config),
                     "--checkpoint", str(trained), "--nfe", "4",
                     "--count", "32", "--out", str(out)]) == 0
        outs.append((out / "samples_nfe4.csv").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]


def test_sample_seed_changes_output(tiny_config, trained, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out, seed in ((a, "7"), (b, "8")):
        assert main(["sample", "--config", str(tiny_config),
                     "--checkpoint", str(trained), "--count", "32",
                     "--seed", seed, "--out", str(out)]) == 0
    capsys.readouterr()
    assert (a / "samples_nfe1.csv").read_bytes() != (b / "samples_nfe1.csv").read_bytes()


def test_sample_budget_counts_evaluations(tiny_config, trained, tmp_path, capsys):
    for nfe in ("2", "8"):
        out = tmp_path / f"n{nfe}"
        assert main(["sample", "--config", str(tiny_config),
                     "--checkpoint", str(trained), "--nfe", nfe,
                     "--count", "16", "--out", str(out)]) == 0
        timing = read_report(out / f"timing_nfe{nfe}.json")
        assert timing["network_evaluations"] == int(nfe)
    capsys.readouterr()


def old_samples_csv(samples):
    """The sample CSV as a per-value f-string loop writes it."""
    lines = [",".join(f"c{i}" for i in range(samples.shape[1]))]
    lines += [",".join(f"{v:.17g}" for v in row) for row in samples]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("samples", [
    np.random.default_rng(0).standard_normal((4096, 2)),
    np.random.default_rng(1).standard_normal((3, 5)),
    np.array([[0.25]]),
    np.array([[-0.0, 5e-324, 1e308, -1e308, 1.0 / 3.0]]),
    np.array([[-0.0], [5e-324], [1e-300], [1e300], [3.0], [-2.0 ** 60]]),
    np.array([[-0.0, 5e-324, -1e-300], [1e300, 7.0, 0.0], [-12.0, 2.0 ** 53, 0.1]]),
], ids=["4096x2", "3x5", "1x1", "edge-values", "edge-1-column", "edge-3-columns"])
def test_samples_csv_bytes(samples, tmp_path):
    path = tmp_path / "s.csv"
    _samples_csv(path, samples)
    assert path.read_bytes() == old_samples_csv(samples).encode()
    np.savetxt(tmp_path / "ref.csv", samples, fmt="%.17g", delimiter=",", comments="",
               header=",".join(f"c{i}" for i in range(samples.shape[1])))
    assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("nfe", [1, 8])
def test_sample_writes_toy_sample_rows(nfe, tiny_config, trained, tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["sample", "--config", str(tiny_config), "--checkpoint", str(trained),
                 "--nfe", str(nfe), "--count", "32", "--seed", "9",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    written = np.loadtxt(out / f"samples_nfe{nfe}.csv", delimiter=",", skiprows=1)
    cfg = load_config(tiny_config)
    _, model, _ = load_run(trained)
    expected = toy_sample(model, cfg.toy_problem(), 32, np.random.default_rng(9), nfe)
    assert np.array_equal(written, expected)


def test_sample_budget_larger_than_grid_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({"schema_version": 1, "grid": {"n_steps": 4}}))
    # The budget is checked before the (absent) checkpoint is opened.
    rc = main(["sample", "--config", str(cfg), "--checkpoint",
               str(tmp_path / "absent.ckpt"), "--nfe", "8",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "budget 8 does not fit a grid of 4 steps" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_sample_dimension_mismatch_is_config_error(trained, tmp_path, capsys):
    raw = {
        "schema_version": 1,
        "toy": {"means": [[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
                "sigmas": [0.5, 0.5], "weights": [0.5, 0.5]},
    }
    cfg = tmp_path / "threedee.json"
    cfg.write_text(json.dumps(raw))
    rc = main(["sample", "--config", str(cfg), "--checkpoint", str(trained),
               "--count", "8", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "do not match" in capsys.readouterr().err


@pytest.mark.parametrize("nfe", ["1", "8"])
def test_sample_without_config_reads_the_run_from_the_checkpoint(
        nfe, tiny_config, trained, tmp_path, capsys):
    # The checkpoint carries the tiny config, its seed included.
    given, bare = tmp_path / "given", tmp_path / "bare"
    assert main(["sample", "--config", str(tiny_config), "--checkpoint", str(trained),
                 "--nfe", nfe, "--count", "64", "--out", str(given)]) == 0
    assert main(["sample", "--checkpoint", str(trained),
                 "--nfe", nfe, "--count", "64", "--out", str(bare)]) == 0
    capsys.readouterr()
    name = f"samples_nfe{nfe}.csv"
    assert (bare / name).read_bytes() == (given / name).read_bytes()


def test_sample_timing_hashes_the_checkpoints_run(tiny_config, trained, tmp_path, capsys):
    # A --config that differs from the run only outside the model-defining
    # sections changes neither the samples nor the recorded run.
    raw = json.loads(tiny_config.read_text())
    raw["optimizer"] = {"lr": 1e-4}
    other = tmp_path / "other_lr.json"
    other.write_text(json.dumps(raw))
    given, bare = tmp_path / "given", tmp_path / "bare"
    assert main(["sample", "--config", str(other), "--checkpoint", str(trained),
                 "--count", "64", "--out", str(given)]) == 0
    assert main(["sample", "--checkpoint", str(trained),
                 "--count", "64", "--out", str(bare)]) == 0
    capsys.readouterr()
    trained_hash = read_report(trained.parent / "train_meta.json")["config_hash"]
    for out in (given, bare):
        assert read_report(out / "timing_nfe1.json")["config_hash"] == trained_hash
    assert (given / "samples_nfe1.csv").read_bytes() == \
        (bare / "samples_nfe1.csv").read_bytes()


def test_sample_without_config_keeps_the_trained_grid(tmp_path, capsys):
    cfg = tmp_path / "coarse.json"
    cfg.write_text(json.dumps({
        "schema_version": 1, "schedule": {"beta1": 5.0}, "grid": {"n_steps": 4},
        "run": {"steps": 2, "batch_size": 4, "probe_step": 1},
        "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8}}))
    assert main(["train-toy", "--config", str(cfg), "--out", str(tmp_path / "t")]) == 0
    capsys.readouterr()
    rc = main(["sample", "--checkpoint", str(tmp_path / "t" / "model.ckpt"),
               "--nfe", "8", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "budget 8 does not fit a grid of 4 steps" in capsys.readouterr().err


def test_sample_config_that_differs_from_the_checkpoint_is_config_error(
        tiny_config, trained, tmp_path, capsys):
    raw = json.loads(tiny_config.read_text())
    raw["grid"] = {"n_steps": 8}
    other = tmp_path / "other.json"
    other.write_text(json.dumps(raw))
    rc = main(["sample", "--config", str(other), "--checkpoint", str(trained),
               "--count", "8", "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "grid.n_steps: --config and the checkpoint's run config do not match" \
        in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    (b'"grid"', b'"gri\xff"', "invalid JSON"),
    (b'"t_max": 0.999', b'"t_max": 1.999', "grid.t_max"),
], ids=["not-utf8", "out-of-range"])
def test_sample_corrupt_run_config_in_checkpoint_fails_cleanly(
        old, new, message, trained, tmp_path, capsys):
    # A bad stored config is a corrupt checkpoint (exit 1), not a usage error.
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(trained.read_bytes().replace(old, new, 1))
    rc = main(["sample", "--checkpoint", str(bad), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and message in err


@pytest.mark.parametrize("section, body", [
    ("io", b'{"out_dir": "runs"}'),
    ("metrics", b'{"cepstral_k": 13, "lre_linear": false}'),
])
def test_sample_checkpoint_whose_run_config_has_a_removed_section_fails(
        section, body, trained, tmp_path, capsys):
    # A checkpoint's config is read as a config file is: no section is
    # dropped silently, so an older checkpoint is a load failure (exit 1).
    _, blob, online = load_checkpoint(trained)
    old = blob.replace(b'"model"', f'"{section}": '.encode() + body + b', "model"', 1)
    assert old != blob
    bad = tmp_path / "old.ckpt"
    save_checkpoint(bad, 50, old, online)
    rc = main(["sample", "--checkpoint", str(bad), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and f"{section}: unknown key" in err


def test_sample_missing_checkpoint_fails(tiny_config, tmp_path, capsys):
    rc = main(["sample", "--config", str(tiny_config),
               "--checkpoint", str(tmp_path / "absent.ckpt"),
               "--out", str(tmp_path / "s")])
    assert rc == 1
    capsys.readouterr()


def test_sample_truncated_checkpoint_fails_cleanly(tiny_config, trained, tmp_path, capsys):
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(trained.read_bytes()[:20])
    rc = main(["sample", "--config", str(tiny_config),
               "--checkpoint", str(cut), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "truncated at byte" in err


def test_v2_checkpoint_is_refused(trained, tmp_path, capsys):
    # v2 stored the EMA target after the online net; no v2 reader is kept,
    # so such a file is a load failure (exit 1), not a misread v3 file.
    step, blob, online = load_checkpoint(trained)
    old = tmp_path / "v2.ckpt"
    old.write_bytes(struct.pack("<8sIQIQ", b"SBDENOIS", 2, step, len(blob), online.size)
                    + blob + np.concatenate([online, online]).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported checkpoint version 2"):
        load_checkpoint(old)
    rc = main(["sample", "--checkpoint", str(old), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "version 2" in err


def test_v3_checkpoint_is_refused(trained, tmp_path, capsys):
    # v3 stored the online net as float64; no v3 reader is kept, so such a
    # file is a load failure (exit 1), not a misread v4 file.
    step, blob, online = load_checkpoint(trained)
    old = tmp_path / "v3.ckpt"
    old.write_bytes(struct.pack("<8sIQIQ", b"SBDENOIS", 3, step, len(blob), online.size)
                    + blob + online.astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unsupported checkpoint version 3"):
        load_checkpoint(old)
    rc = main(["sample", "--checkpoint", str(old), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "version 3" in err


def test_sample_non_finite_checkpoint_fails_cleanly(tiny_config, trained, tmp_path, capsys):
    cfg, model, step = load_run(trained)
    model.online.weights[0][0, 0] = np.nan
    bad = tmp_path / "nan.ckpt"
    save_run(bad, cfg, model, step)
    rc = main(["sample", "--config", str(tiny_config),
               "--checkpoint", str(bad), "--out", str(tmp_path / "s")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "cannot load checkpoint" in err and "online net" in err


def test_sample_network_overflowing_float32_fails_cleanly(tiny_config, trained, tmp_path,
                                                          capsys):
    # Weights float32 holds, whose layers overflow it: the forward yields a
    # non-finite estimate, and sampling fails as for any corrupt network.
    cfg, model, step = load_run(trained)
    model.online.weights[0][:] = 3e38
    big = tmp_path / "big.ckpt"
    save_run(big, cfg, model, step)
    with np.errstate(all="ignore"):
        rc = main(["sample", "--config", str(tiny_config), "--count", "8",
                   "--checkpoint", str(big), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "sampling failed: network produced a non-finite estimate" in capsys.readouterr().err


@pytest.fixture(scope="module")
def recipe_500(tmp_path_factory):
    """The recipe at 500 steps, as the sample benchmark's checkpoint, and
    the float64 model its training ends with."""
    d = tmp_path_factory.mktemp("recipe_500")
    (d / "c.json").write_text(json.dumps({"schema_version": 1, "run": {"steps": 500}}))
    assert main(["train-toy", "--config", str(d / "c.json"), "--out", str(d)]) == 0
    # Training is deterministic: this is the net the checkpoint was written from.
    model = run_toy_training(load_config(d / "c.json")).model
    return d / "model.ckpt", model


@pytest.mark.parametrize("nfe", [1, 8])
def test_float32_samples_stay_within_the_float64_path(nfe, recipe_500, tmp_path, capsys):
    # sample (float32 network) against toy_sample on the float64 model the
    # checkpoint was written from, at the same seed.  Measured over seeds 7,
    # 8 and 9 at NFE 1/2/4/8: at most 1.65e-6 pointwise and 2.64e-8 nats
    # apart in the mean posterior log density; the bounds leave about 3x and
    # 3.8x of margin.
    ckpt, model = recipe_500
    assert main(["sample", "--checkpoint", str(ckpt), "--nfe", str(nfe),
                 "--count", "4096", "--seed", "9", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    got = np.loadtxt(tmp_path / f"samples_nfe{nfe}.csv", delimiter=",", skiprows=1)
    cfg, loaded, _ = load_run(ckpt)
    assert model.online.flat.dtype == np.float64
    assert np.array_equal(loaded.online.flat, model.online.flat.astype(np.float32))
    problem = cfg.toy_problem()
    want = toy_sample(model, problem, 4096, np.random.default_rng(9), nfe)
    assert np.max(np.abs(got - want)) <= 5e-6
    post = posterior_mixing(problem, problem.draw_prior(4096, np.random.default_rng(9)))
    log_got = np.mean(bridge_marginal_logpdf(got, 0.0, post, cfg.schedule()))
    log_want = np.mean(bridge_marginal_logpdf(want, 0.0, post, cfg.schedule()))
    assert abs(log_got - log_want) <= 1e-7


def test_sample_fails_when_evaluations_go_uncounted(tiny_config, trained, tmp_path,
                                                   monkeypatch, capsys):
    # A denoiser that skips eval_count leaves the budget unaccounted for.
    monkeypatch.setattr(consistency, "denoise", lambda m, x_t, i, cond:
                        consistency._estimate(m, m.online, x_t, i, cond))
    out = tmp_path / "s"
    rc = main(["sample", "--config", str(tiny_config), "--checkpoint", str(trained),
               "--nfe", "2", "--count", "8", "--out", str(out)])
    assert rc == 1
    assert ("evaluation accounting failed: budget 2, recorded 0"
            in capsys.readouterr().err)
    assert not (out / "samples_nfe2.csv").exists()


def test_sample_rejects_bad_count(tiny_config, trained, tmp_path, capsys):
    rc = main(["sample", "--config", str(tiny_config),
               "--checkpoint", str(trained), "--count", "0",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    capsys.readouterr()


def test_sample_rejects_huge_count(tiny_config, trained, tmp_path, capsys):
    rc = main(["sample", "--config", str(tiny_config),
               "--checkpoint", str(trained), "--count", "1000000000000",
               "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_identical_and_gain_pairs(tmp_path, capsys):
    ref = tmp_path / "ref.wav"
    same = tmp_path / "same.wav"
    gain = tmp_path / "gain.wav"
    write_decaying_stereo(ref)
    write_decaying_stereo(same)
    write_decaying_stereo(gain, gain_left=2.0)
    out = tmp_path / "ev"
    rc = main(["eval", "--ref", str(ref), str(ref),
               "--syn", str(same), str(gain), "--out", str(out)])
    capsys.readouterr()
    assert rc == 0

    identical = read_report(out / "pair_000.json")["report"]
    assert identical["mcd_db"] == 0.0
    assert identical["lre_db"] == 0.0
    assert identical["rte_s"] == 0.0
    assert set(identical) == {"mcd_db", "lre_db", "rte_s"}

    doubled = read_report(out / "pair_001.json")["report"]
    # doubling one channel quadruples its energy: 10*log10(4) dB
    assert doubled["lre_db"] == pytest.approx(10 * np.log10(4.0), abs=1e-3)

    csv_lines = (out / "aggregate.csv").read_text().splitlines()
    assert csv_lines[0] == "System,MCD,LRE,RTE"
    assert len(csv_lines) == 3
    assert csv_lines[1] == "same,0,0,0"


def test_eval_pair_reports_hold_only_the_metrics(tmp_path, capsys):
    # The training stand-ins describe train-toy, not the scoring of audio:
    # each pair's report is the metric tuple and nothing else.
    paths = [tmp_path / f"{name}.wav" for name in ("ref", "syn")]
    write_decaying_stereo(paths[0])
    write_decaying_stereo(paths[1], gain_left=0.5, tau=0.4, seed=3)
    out = tmp_path / "ev"
    assert main(["eval", "--ref", str(paths[0]), "--syn", str(paths[1]),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    entry = read_report(out / "pair_000.json")
    assert set(entry) == {"ref", "syn", "report"}
    assert set(entry["report"]) == {"mcd_db", "lre_db", "rte_s"}
    assert all(entry["report"][key] > 0.0 for key in ("mcd_db", "lre_db", "rte_s"))


def test_eval_rt60_input_is_the_channel_mean_bitwise(tmp_path, monkeypatch, capsys):
    paths = [tmp_path / f"{name}.wav" for name in ("ref", "syn")]
    write_decaying_stereo(paths[0])
    write_decaying_stereo(paths[1], gain_left=0.5, tau=0.4, seed=3)
    seen = []
    rt60 = metrics.rt60_schroeder

    def spy(ir, rate):
        seen.append(np.array(ir))
        return rt60(ir, rate)

    monkeypatch.setattr(metrics, "rt60_schroeder", spy)
    assert main(["eval", "--ref", str(paths[0]), "--syn", str(paths[1]),
                 "--out", str(tmp_path / "ev")]) == 0
    capsys.readouterr()
    assert len(seen) == 2
    for mix, path in zip(seen, paths):
        assert np.array_equal(mix, read_wav(path).samples.mean(axis=1))


def test_eval_flags_failures_but_keeps_partial_results(tmp_path, capsys):
    ref = tmp_path / "ref.wav"
    write_decaying_stereo(ref)
    broken = tmp_path / "broken.wav"
    broken.write_bytes(b"definitely not audio")
    out = tmp_path / "ev"
    rc = main(["eval", "--ref", str(ref), str(ref),
               "--syn", str(ref), str(broken), "--out", str(out)])
    capsys.readouterr()
    assert rc == 1
    summary = read_report(out / "eval_summary.json")
    assert summary["pairs"] == 2
    assert summary["evaluated"] == 1
    assert len(summary["failures"]) == 1
    assert "error" in read_report(out / "pair_001.json")
    # the good pair still made it into the aggregate
    assert len((out / "aggregate.csv").read_text().splitlines()) == 2


def test_eval_reports_a_stereo_reference_against_a_mono_synthesis(tmp_path, capsys):
    ref, syn = tmp_path / "ref.wav", tmp_path / "syn.wav"
    write_decaying_stereo(ref)
    write_wav(syn, StereoWaveform(read_wav(ref).samples[:, 0], RATE))
    out = tmp_path / "ev"
    assert main(["eval", "--ref", str(ref), "--syn", str(syn), "--out", str(out)]) == 1
    capsys.readouterr()
    assert "channel counts differ: 2 vs 1" in read_report(out / "pair_000.json")["error"]


def test_eval_reports_a_data_chunk_of_partial_frames(tmp_path, capsys):
    ref = tmp_path / "ref.wav"
    write_decaying_stereo(ref)
    blob = bytearray(ref.read_bytes())
    at = blob.index(b"data") + 4
    size = struct.unpack_from("<I", blob, at)[0] - 2
    struct.pack_into("<I", blob, at, size)
    syn = tmp_path / "syn.wav"
    syn.write_bytes(blob[:-2])
    out = tmp_path / "ev"
    assert main(["eval", "--ref", str(ref), "--syn", str(syn), "--out", str(out)]) == 1
    capsys.readouterr()
    assert (f"data chunk: {size} bytes is not a whole number of 2-channel frames"
            in read_report(out / "pair_000.json")["error"])


def test_eval_survives_every_single_bit_flip_of_the_header(tmp_path, capsys):
    # Each one-bit corruption of the 44-byte header ends in a clean exit:
    # 0 if the file still reads as audio, 1 if the pair is reported failed.
    ref = tmp_path / "ref.wav"
    write_decaying_stereo(ref)
    blob = ref.read_bytes()
    syn = tmp_path / "syn.wav"
    codes = set()
    for bit in range(8 * 44):
        corrupt = bytearray(blob)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        syn.write_bytes(corrupt)
        rc = main(["eval", "--ref", str(ref), "--syn", str(syn),
                   "--out", str(tmp_path / "ev")])
        assert rc in (0, 1), f"bit {bit}: exit {rc}"
        codes.add(rc)
    capsys.readouterr()
    assert codes == {0, 1}


def test_eval_misaligned_path_lists(tmp_path, capsys):
    ref = tmp_path / "ref.wav"
    write_decaying_stereo(ref)
    rc = main(["eval", "--ref", str(ref), str(ref), "--syn", str(ref),
               "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "--syn: must align with --ref" in capsys.readouterr().err
    assert not (tmp_path / "ev").exists()
