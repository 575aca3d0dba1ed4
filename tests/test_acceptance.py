"""Release gate: ten numbered end-to-end checks, one test each.

Every test prints a single ``criterion NN PASS`` line on success (visible
with ``pytest -s``), so the suite output reads as a checklist.  Numeric
tolerances are pinned here on purpose — loosening one is a contract change,
not a test fix.
"""

import json
import math
import time

import numpy as np
import pytest

from stereobridge.bridge import (
    BridgeSample,
    Endpoints,
    analytic_posterior_score,
    integrate_pf_ode,
    posterior_moments,
    sample_posterior,
)
from stereobridge.cli import main
from stereobridge.config import default_config
from stereobridge.consistency import stereo_enhancement_loss
from stereobridge.dsp import MelCepstra, StereoWaveform
from stereobridge.metrics import (
    analytic_rt60,
    exponential_ir,
    lre,
    mcd,
    rt60_schroeder,
)
from stereobridge.net import init_denoiser, loss_and_grads
from stereobridge.schedule import NoiseSchedule, make_grid
from stereobridge.spatial import (
    SceneFeatureGrid,
    SpeakerPose,
    attention_weights,
    fuse_text,
    init_spatial_encoder,
    pose_encoding,
    viewpoint_split,
)
from stereobridge.toys import (
    energy_distance,
    oracle_ode_sample,
    run_toy_training,
    toy_sample,
)

SCHED = NoiseSchedule()
GRID = make_grid(12)
PROBLEM = default_config().toy_problem()


def report(number, label):
    print(f"criterion {number:02d} PASS — {label}")


# The toy run and its analytic baseline are shared by criteria 5 and 6.

@pytest.fixture(scope="module")
def toy_run():
    t0 = time.perf_counter()
    result = run_toy_training(default_config())
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reference_sets():
    r = np.random.default_rng(123)
    held = PROBLEM.mixture.sample(4096, r)
    oracle = oracle_ode_sample(PROBLEM, PROBLEM.draw_prior(4096, r), SCHED, r,
                               t_start=GRID.t_max, t_end=GRID.t_min)
    return held, energy_distance(oracle, held)


def test_criterion_01_bridge_pinning_and_moments():
    t_begin = time.perf_counter()
    rng = np.random.default_rng(2024)
    x0 = rng.normal(size=16)
    x1 = rng.normal(size=16)
    n = 100_000
    batch_ep = Endpoints(np.tile(x0, (n, 1)), np.tile(x1, (n, 1)))
    for t in rng.uniform(0.02, 0.98, size=20):
        t = float(t)
        mu, v = posterior_moments(Endpoints(x0, x1), t, SCHED)
        draws = sample_posterior(batch_ep, t, SCHED,
                                 rng.standard_normal((n, 16))).x
        se_mean = math.sqrt(v / n)
        se_var = v * math.sqrt(2.0 / (n - 1))
        assert np.max(np.abs(draws.mean(axis=0) - mu)) <= 4.0 * se_mean
        assert np.max(np.abs(draws.var(axis=0, ddof=1) - v)) <= 4.0 * se_var

    # endpoint pinning at the working-grid edges
    z = rng.standard_normal(16)
    near_x0 = sample_posterior(Endpoints(x0, x1), GRID.t_min, SCHED, z).x
    near_x1 = sample_posterior(Endpoints(x0, x1), GRID.t_max, SCHED, z).x
    assert np.max(np.abs(near_x0 - x0)) < 0.2
    assert np.max(np.abs(near_x1 - x1)) < 1.0

    assert time.perf_counter() - t_begin < 10.0
    report(1, "posterior sampling matches closed-form moments within 4 SE")


def test_criterion_02_score_oracle_vs_finite_differences():
    rng = np.random.default_rng(7)
    dim = 4
    ep = Endpoints(rng.normal(size=dim), rng.normal(size=dim))
    h = 1e-6
    worst = 0.0
    for _ in range(1000):
        t = float(rng.uniform(0.05, 0.95))
        mu, v = posterior_moments(ep, t, SCHED)
        x = mu + math.sqrt(v) * rng.standard_normal(dim)
        analytic = analytic_posterior_score(x, ep, t, SCHED)

        def logpdf(p):
            return -0.5 * float(np.sum((p - mu) ** 2)) / v

        fd = np.empty(dim)
        for axis in range(dim):
            e = np.zeros(dim)
            e[axis] = h
            fd[axis] = (logpdf(x + e) - logpdf(x - e)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(analytic - fd))
                    / max(float(np.linalg.norm(fd)), 1e-30))
    assert worst <= 1e-6
    report(2, f"analytic score matches finite differences (worst {worst:.2e})")


def test_criterion_03_ode_self_convergence_and_closed_form():
    # Constant unit rate makes the drift affine, so the flow integrates in
    # closed form and the order study needs no external reference.
    const = NoiseSchedule(beta0=1.0, beta1=1.0)
    t0, t1 = 0.9, 0.1
    xs = np.array([3.0])
    x1 = np.array([-1.0])
    start = BridgeSample(xs, t0)
    ratio = (t1 * (1.0 - t0)) / (t0 * (1.0 - t1))
    exact = x1 + (xs - x1) * ratio ** -0.5

    out = integrate_pf_ode(start, t1, 256, x1, const).x
    rel_err = float(np.abs(out - exact)[0] / np.abs(exact)[0])
    assert rel_err <= 1e-4

    ref = integrate_pf_ode(start, t1, 10_000, x1, const).x
    errs = [float(np.abs(integrate_pf_ode(start, t1, s, x1, const).x - ref)[0])
            for s in (32, 64, 128)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9
    report(3, f"integrator order {min(orders):.2f}, 256-step error {rel_err:.1e}")


def test_criterion_04_gradients_exact_on_probe_network():
    p = init_denoiser(np.random.default_rng(11), data_dim=3, cond_dim=2,
                      hidden=8, depth=2, time_embed_dim=4)
    rng = np.random.default_rng(12)
    batch = (rng.standard_normal((5, 3)), rng.uniform(0.05, 0.95, size=5),
             rng.standard_normal((5, 2)))
    target = rng.standard_normal((5, 3))

    def loss_fn(out):
        diff = out - target
        return 0.5 * np.sum(diff * diff), diff

    _, grads = loss_and_grads(p, batch, loss_fn)
    h = 1e-5
    checked = 0
    for i in range(p.n_layers):
        for kind, tensor, grad in (("w", p.weights[i], grads.weights[i]),
                                   ("b", p.biases[i], grads.biases[i])):
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                hi, _ = loss_and_grads(p, batch, loss_fn)
                tensor[idx] = orig - h
                lo, _ = loss_and_grads(p, batch, loss_fn)
                tensor[idx] = orig
                fd = (hi - lo) / (2.0 * h)
                rel = abs(fd - grad[idx]) / max(abs(fd) + abs(grad[idx]), 1e-6)
                assert rel <= 1e-4, f"{kind}{i}{idx}: fd={fd} grad={grad[idx]}"
                checked += 1
    report(4, f"all {checked} parameter gradients match finite differences")


def test_criterion_05_toy_training_beats_analytic_baseline(toy_run,
                                                           reference_sets):
    result, train_wall = toy_run
    held, ed_oracle = reference_sets

    first50 = float(np.mean(result.losses[:50]))
    last50 = float(np.mean(result.losses[-50:]))
    assert last50 <= 0.5 * first50

    assert result.spread_probe >= 3.0 * result.spread_final

    one_step = toy_sample(result.model, PROBLEM, 4096,
                          np.random.default_rng(5), nfe=1)
    ed_one = energy_distance(one_step, held)
    assert ed_one <= 1.5 * ed_oracle

    assert train_wall < 300.0
    report(5, f"loss {last50/first50:.2f}x, spread "
              f"{result.spread_probe/result.spread_final:.1f}x tighter, "
              f"one-step ED {ed_one/ed_oracle:.2f}x baseline, "
              f"{train_wall:.0f}s")


def test_criterion_06_more_evaluations_do_not_hurt(toy_run, reference_sets):
    result, _ = toy_run
    held, _ = reference_sets

    ed1 = [energy_distance(
        toy_sample(result.model, PROBLEM, 4096, np.random.default_rng(s),
                   nfe=1), held) for s in (5, 6, 7, 8, 9)]
    ed4 = [energy_distance(
        toy_sample(result.model, PROBLEM, 4096, np.random.default_rng(s),
                   nfe=4), held) for s in (1005, 1006, 1007, 1008, 1009)]
    mean1 = float(np.mean(ed1))
    mean4 = float(np.mean(ed4))
    assert mean4 <= 1.1 * mean1

    def best_wall(nfe, seed):
        walls = []
        for _ in range(3):
            rng = np.random.default_rng(seed)
            t0 = time.perf_counter()
            toy_sample(result.model, PROBLEM, 4096, rng, nfe=nfe)
            walls.append(time.perf_counter() - t0)
        return min(walls)

    wall1 = best_wall(1, 5)
    wall4 = best_wall(4, 1005)
    assert wall1 < wall4
    report(6, f"4-call ED {mean4/mean1:.2f}x of 1-call, walls "
              f"{wall1*1e3:.0f}ms < {wall4*1e3:.0f}ms")


def test_criterion_07_metric_oracles():
    t_begin = time.perf_counter()
    rng = np.random.default_rng(40)

    c = rng.standard_normal((12, 13))
    assert mcd(MelCepstra(c), MelCepstra(c.copy())) == 0.0

    # one coefficient off by ln(10)/(10*sqrt(2)) is exactly 1 dB
    ref = np.zeros((4, 13))
    syn = np.zeros((4, 13))
    syn[:, 2] = math.log(10.0) / (10.0 * math.sqrt(2.0))
    assert abs(mcd(MelCepstra(ref), MelCepstra(syn)) - 1.0) <= 1e-9

    left = 0.1 * rng.standard_normal(22050)
    right = 0.1 * rng.standard_normal(22050)
    base = StereoWaveform(np.stack([left, right], axis=1), 22050)
    boosted = StereoWaveform(np.stack([2.0 * left, right], axis=1), 22050)
    assert abs(lre(base, boosted) - 6.0206) <= 1e-6

    for tau in (0.1, 0.25, 0.5, 0.75, 1.0):
        ir = exponential_ir(tau, 22050, seconds=6.0 * tau, rng=rng)
        est = rt60_schroeder(ir, 22050)
        truth = analytic_rt60(tau)
        assert abs(est - truth) <= 0.05 * truth, f"tau={tau}: {est} vs {truth}"

    assert time.perf_counter() - t_begin < 30.0
    report(7, "cepstral, energy-ratio, and decay-time oracles all hit")


def test_criterion_08_spatial_conditioning_invariants():
    rng = np.random.default_rng(50)

    rows = attention_weights(rng.standard_normal((32, 8)),
                             3.0 * rng.standard_normal((50, 8)))
    assert np.max(np.abs(rows.sum(axis=1) - 1.0)) <= 1e-9

    for alpha in rng.uniform(-10.0, 10.0, size=10_000):
        e = pose_encoding(SpeakerPose(1.5, float(alpha)))
        assert abs(e[1] ** 2 + e[2] ** 2 - 1.0) <= 1e-12

    grid = SceneFeatureGrid(rng.standard_normal((6, 12, 5)))
    left, right = viewpoint_split(grid)
    k = 12 // 4
    assert left.features[:, k:, :].tobytes() == grid.features[:, k:, :].tobytes()
    assert right.features[:, :-k, :].tobytes() == grid.features[:, :-k, :].tobytes()
    assert not left.features[:, :k, :].any()
    assert not right.features[:, -k:, :].any()

    enc = init_spatial_encoder(np.random.default_rng(51))
    h_txt = rng.standard_normal((7, enc.d_model))
    es = rng.standard_normal((9, enc.d_model))
    assert np.array_equal(fuse_text(h_txt, es, enc), h_txt)
    report(8, "attention rows stochastic, pose unit circle, views bit-exact, "
              "fusion starts at identity")


def test_criterion_09_enhancement_loss_contract():
    rng = np.random.default_rng(60)
    frames = rng.standard_normal((5, 8))
    assert stereo_enhancement_loss(frames, frames, frames, frames) == 0.0

    for w in (0.3, 1.0):
        for _ in range(20):
            gl, gr, rl, rr = rng.standard_normal((4, 3, 6))
            assert stereo_enhancement_loss(gl, gr, rl, rr,
                                           repulsion_weight=w) >= 0.0

    # equal reconstruction error, more channel separation scores lower
    for _ in range(20):
        r = rng.standard_normal((3, 6))
        g = rng.standard_normal((3, 6))
        mono = stereo_enhancement_loss(g, g, r, r)
        mirrored = stereo_enhancement_loss(g, 2.0 * r - g, r, r)
        assert mirrored < mono
    report(9, "zero at perfect mono reconstruction, bounded below, "
              "separation rewarded")


def test_criterion_10_end_to_end_determinism(tmp_path, capsys):
    raw = {
        "schema_version": 1,
        "run": {"steps": 120, "batch_size": 4, "probe_step": 10},
        "model": {"hidden": 16, "depth": 2, "time_embed_dim": 8},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))

    artifacts = []
    for name in ("a", "b"):
        run_dir = tmp_path / name
        assert main(["train-toy", "--config", str(cfg),
                     "--out", str(run_dir)]) == 0
        assert main(["sample", "--config", str(cfg),
                     "--checkpoint", str(run_dir / "model.ckpt"),
                     "--count", "256", "--out", str(run_dir)]) == 0
        artifacts.append((
            (run_dir / "model.ckpt").read_bytes(),
            (run_dir / "samples_nfe1.csv").read_bytes(),
        ))
    capsys.readouterr()
    assert artifacts[0][0] == artifacts[1][0]
    assert artifacts[0][1] == artifacts[1][1]
    report(10, "repeated train and sample runs are bitwise identical")
