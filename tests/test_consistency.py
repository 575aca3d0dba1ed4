import tracemalloc

import numpy as np
import pytest

from stereobridge import net
from stereobridge.bridge import Endpoints, sample_posterior
from stereobridge.config import default_config
from stereobridge.consistency import (
    ConsistencyModel,
    NodeTable,
    _boundary,
    _scalings,
    _state,
    consistency_loss_and_grads,
    denoise,
    nfe_times,
    sample_multistep,
    self_consistency_spread,
    stereo_enhancement_loss,
    train_step,
)
from stereobridge.net import init_adam, init_denoiser
from stereobridge.schedule import NoiseSchedule, bridge_coefficients, make_grid

CONST = NoiseSchedule(beta0=1.0, beta1=1.0)
DEFAULT = NoiseSchedule()

DIM = 3
COND = 2


def he_final_layer(p, rng):
    """Draw the zero-initialized final layer as the hidden layers are drawn."""
    w = p.weights[-1]
    w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])


def make_model(sched=DEFAULT, sigma_data=0.5, n_steps=8, seed=0,
               decay=0.999, t_min=0.001, t_max=0.999):
    rng = np.random.default_rng(seed)
    online = init_denoiser(rng, data_dim=DIM, cond_dim=COND, hidden=8,
                           depth=2, time_embed_dim=4)
    he_final_layer(online, rng)
    return ConsistencyModel(online=online, target=online.copy(), sched=sched,
                            grid=make_grid(n_steps, t_min=t_min, t_max=t_max),
                            sigma_data=sigma_data, ema_decay=decay)


def mid_model(sigma_data):
    """Unit-rate model whose grid node 1 sits at t = 0.5 exactly."""
    m = make_model(sched=CONST, sigma_data=sigma_data, n_steps=2,
                   t_min=0.25, t_max=0.75)
    assert m.grid.nodes[1] == 0.5
    return m


def make_batch(n, seed=1):
    """An ``(x0, x1, cond)`` batch of n random rows."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((n, DIM)), rng.standard_normal((n, DIM)),
            rng.standard_normal((n, COND)))


def row(batch, i):
    """Row i of a batch, still as a one-row batch."""
    return tuple(a[i:i + 1] for a in batch)


def params_equal(a, b):
    return (all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
            and all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases)))


# ---------------------------------------------------------------------------
# Parameterization
# ---------------------------------------------------------------------------

def test_boundary_scalings_hand_values():
    # Unit-rate schedule at t=0.5 pins cap_sigma2 = 0.25; with sigma_data=1
    # that gives c_skip = 1/1.25 = 0.8 and c_out = 0.5/sqrt(1.25).
    m = mid_model(sigma_data=1.0)
    assert m.table.c_skip[1, 0] == pytest.approx(0.8)
    assert m.table.c_out[1, 0] == pytest.approx(0.4472135954999579)


def test_parameterize_is_identity_near_lower_endpoint():
    # The output weight decays like sqrt(beta0 * t_min), so a minimum time
    # of 1e-6 puts it (and the skip deficit) safely under 1e-3.
    m = make_model(t_min=1e-6)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.standard_normal(DIM) * 3.0
        raw = rng.standard_normal(DIM) * 3.0
        out = _boundary(m, 0, x, raw)
        bound = 1e-3 * (np.linalg.norm(x) + np.linalg.norm(raw))
        assert np.linalg.norm(out - x) <= bound


def test_boundary_weights_shrink_with_t_min():
    # At the stock minimum time the skip weight is already within 5e-4 of
    # one while the output weight is ~ sqrt(beta0 * t_min) ~ 1e-2; both
    # vanish as the grid is pushed toward zero.
    m = make_model()
    c_skip, c_out = m.table.c_skip[0, 0], m.table.c_out[0, 0]
    assert abs(1.0 - c_skip) < 5e-4
    assert c_out < 2e-2
    tighter = make_model(t_min=1e-8)
    c_skip2, c_out2 = tighter.table.c_skip[0, 0], tighter.table.c_out[0, 0]
    assert abs(1.0 - c_skip2) < abs(1.0 - c_skip)
    assert c_out2 < c_out


def test_skip_weight_tends_to_one_for_large_data_scale():
    # c_out tends to sqrt(cap_sigma2) in this limit, not to zero.
    m = mid_model(sigma_data=1e6)
    c_skip, c_out = m.table.c_skip[1, 0], m.table.c_out[1, 0]
    assert c_skip > 1.0 - 1e-9
    assert c_out == pytest.approx(0.5, rel=1e-9)


def test_parameterize_batched_times():
    m = mid_model(sigma_data=1.0)
    x = np.ones((2, DIM))
    raw = np.ones((2, DIM))
    out = _boundary(m, np.array([1, 1]), x, raw)
    assert out.shape == (2, DIM)
    assert np.allclose(out, 0.8 + 0.4472135954999579)


@pytest.mark.parametrize("sched, sigma_data", [(DEFAULT, 0.5), (CONST, 1.0),
                                               (NoiseSchedule(0.3, 7.0), 2.5)])
def test_node_table_matches_scalar_coefficients_bitwise(sched, sigma_data):
    m = make_model(sched=sched, sigma_data=sigma_data, n_steps=12)
    assert all(col.shape == (13, 1) and not col.flags.writeable for col in m.table)
    for i, t in enumerate(m.grid.nodes):
        a, b, cap_sigma2 = bridge_coefficients(sched, float(t))
        c_skip, c_out = _scalings(cap_sigma2, sigma_data)
        want = NodeTable(a, b, np.sqrt(cap_sigma2), c_skip, c_out)
        for name, col, value in zip(NodeTable._fields, m.table, want):
            assert col[i, 0] == value, f"{name} at node {i}"


def test_node_state_matches_sample_posterior_bitwise():
    # Single indices (sampler, spread probe) and per-row index arrays (loss)
    # both give the state sample_posterior draws at that node.
    m = make_model(n_steps=12)
    x0, x1, _ = make_batch(13, seed=40)
    z = np.random.default_rng(41).standard_normal(x0.shape)
    ep = Endpoints(x0, x1)
    for i, t in enumerate(m.grid.nodes):
        assert np.array_equal(_state(m, i, x0, x1, z),
                              sample_posterior(ep, t, m.sched, z).x)
    n = np.random.default_rng(42).integers(0, 13, size=13)
    per_row = _state(m, n, x0, x1, z)
    for r, i in enumerate(n):
        want = sample_posterior(ep, m.grid.nodes[i], m.sched, z).x[r]
        assert np.array_equal(per_row[r], want)


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def test_loss_zero_when_networks_and_times_coincide():
    # Fresh target is an exact copy of the online net, so evaluating both at
    # the same state and time must agree exactly and the distance vanish.
    m = make_model()
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, DIM))
    cond = np.zeros((1, COND))
    on = denoise(m, x, 4, cond)
    raw, _ = net.forward_with_cache(m.target, x, m.grid.nodes[4], cond)
    tg = _boundary(m, 4, x, raw)
    assert np.array_equal(on, tg)
    assert float(np.sum((on - tg) ** 2)) == 0.0


def test_loss_finite_and_nonnegative_on_random_items():
    m = make_model(seed=5)
    rng = np.random.default_rng(6)
    batch = make_batch(10, seed=7)
    for i in range(10):
        n = rng.integers(0, m.grid.n_steps, size=1)
        z = rng.standard_normal((1, DIM))
        loss, _ = consistency_loss_and_grads(m, *row(batch, i), n, z)
        assert np.isfinite(loss)
        assert loss >= 0.0


def test_loss_rejects_out_of_range_index():
    m = make_model()
    batch = make_batch(1)
    z = np.zeros((1, DIM))
    with pytest.raises(IndexError):
        consistency_loss_and_grads(m, *batch, np.array([m.grid.n_steps]), z)
    with pytest.raises(IndexError):
        consistency_loss_and_grads(m, *batch, np.array([-1]), z)


def test_loss_gradients_match_finite_differences():
    # Perturb every online parameter; the target stays frozen throughout,
    # exactly as in training.
    m = make_model(seed=8, n_steps=4)
    x0, x1, cond = make_batch(1, seed=9)
    rng = np.random.default_rng(10)
    n = np.array([2])
    z = rng.standard_normal((1, DIM))
    _, grads = consistency_loss_and_grads(m, x0, x1, cond, n, z)

    h = 1e-5
    checked = 0
    for li in range(m.online.n_layers):
        for tensor, gtensor in ((m.online.weights[li], grads.weights[li]),
                                (m.online.biases[li], grads.biases[li])):
            for idx in np.ndindex(tensor.shape):
                orig = tensor[idx]
                tensor[idx] = orig + h
                hi, _ = consistency_loss_and_grads(m, x0, x1, cond, n, z)
                tensor[idx] = orig - h
                lo, _ = consistency_loss_and_grads(m, x0, x1, cond, n, z)
                tensor[idx] = orig
                fd = (hi - lo) / (2.0 * h)
                rel = abs(fd - gtensor[idx]) / max(abs(fd) + abs(gtensor[idx]), 1e-6)
                assert rel <= 1e-4, f"layer {li} {idx}: fd={fd} grad={gtensor[idx]}"
                checked += 1
    assert checked > 100


def test_loss_batched_equals_mean_of_singles():
    m = make_model(seed=11)
    batch = make_batch(3, seed=12)
    rng = np.random.default_rng(13)
    n = rng.integers(0, m.grid.n_steps, size=3)
    z = rng.standard_normal((3, DIM))
    batched, _ = consistency_loss_and_grads(m, *batch, n, z)
    singles = [consistency_loss_and_grads(m, *row(batch, i), n[i:i + 1], z[i:i + 1])[0]
               for i in range(3)]
    assert batched == pytest.approx(np.mean(singles), rel=1e-12)


# ---------------------------------------------------------------------------
# Training step
# ---------------------------------------------------------------------------

def test_train_step_zero_lr_keeps_parameters():
    m = make_model(seed=14)
    batch = make_batch(4, seed=15)
    opt = init_adam(m.online, lr=0.0, beta2=0.999)
    before = m.online.copy()
    target_before = m.target.copy()
    new_m, _, loss = train_step(m, batch, opt, np.random.default_rng(16))
    assert np.isfinite(loss) and loss >= 0.0
    assert params_equal(new_m.online, before)
    # EMA of an unchanged online net is also unchanged.
    assert params_equal(new_m.target, target_before)


def test_train_step_seeded_runs_identical():
    def run():
        m = make_model(seed=17)
        opt = init_adam(m.online, lr=1e-3, beta2=0.999)
        batch = make_batch(4, seed=18)
        losses = []
        rng = np.random.default_rng(19)
        for _ in range(6):
            m, opt, loss = train_step(m, batch, opt, rng)
            losses.append(loss)
        return m, losses

    m_a, losses_a = run()
    m_b, losses_b = run()
    assert losses_a == losses_b
    assert params_equal(m_a.online, m_b.online)
    assert params_equal(m_a.target, m_b.target)


def test_train_step_target_follows_closed_form_ema():
    # Replay the exact EMA recursion over the online history and demand
    # bitwise agreement: any gradient leak into the target would break it.
    decay = 0.9
    m = make_model(seed=20, decay=decay)
    opt = init_adam(m.online, lr=1e-2, beta2=0.999)
    batch = make_batch(4, seed=21)
    rng = np.random.default_rng(22)
    expect_w = [w.copy() for w in m.target.weights]
    expect_b = [b.copy() for b in m.target.biases]
    for _ in range(4):
        m, opt, _ = train_step(m, batch, opt, rng)
        expect_w = [decay * tw + (1.0 - decay) * ow
                    for tw, ow in zip(expect_w, m.online.weights)]
        expect_b = [decay * tb + (1.0 - decay) * ob
                    for tb, ob in zip(expect_b, m.online.biases)]
    for got, want in zip(m.target.weights, expect_w):
        assert np.array_equal(got, want)
    for got, want in zip(m.target.biases, expect_b):
        assert np.array_equal(got, want)


def test_train_step_rejects_empty_batch():
    m = make_model()
    empty = (np.zeros((0, DIM)), np.zeros((0, DIM)), np.zeros((0, COND)))
    with pytest.raises(ValueError):
        train_step(m, empty, init_adam(m.online, lr=1e-4, beta2=0.999),
                   np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_one_step_uses_exactly_one_evaluation():
    m = make_model(seed=23)
    assert m.eval_count == 0
    sample_multistep(m, np.zeros((1, DIM)), np.zeros((1, COND)), 1, np.random.default_rng(0))
    assert m.eval_count == 1
    sample_multistep(m, np.zeros((5, DIM)), np.zeros((5, COND)), 1, np.random.default_rng(0))
    assert m.eval_count == 2


def test_multistep_single_time_reduces_to_one_step():
    # Budget 1 denoises the top-node start state b * x1 + sqrt(cap_sigma2) * z
    # built from the generator's first draw.
    m = make_model(seed=25)
    x1 = np.array([[0.3, -0.7, 1.1]])
    cond = np.ones((1, COND))
    t = float(m.grid.t_max)
    z = np.random.default_rng(26).standard_normal((1, DIM))
    _, b, cap_sigma2 = bridge_coefficients(m.sched, t)
    c_skip, c_out = _scalings(cap_sigma2, m.sigma_data)
    start = b * x1 + np.sqrt(cap_sigma2) * z
    raw, _ = net.forward_with_cache(m.online, start, t, cond)
    expected = c_skip * start + c_out * raw
    out = sample_multistep(m, x1, cond, 1, np.random.default_rng(26))
    assert np.array_equal(out, expected)


def test_multistep_counts_evaluations():
    m = make_model(seed=27)
    for nfe in (1, 2, 4, 8):
        before = m.eval_count
        sample_multistep(m, np.zeros((1, DIM)), np.zeros((1, COND)), nfe,
                         np.random.default_rng(28))
        assert m.eval_count - before == nfe


def test_multistep_validates_times():
    # A budget of 0, or one too large for the grid's 8 steps, is refused
    # before any evaluation.
    m = make_model()
    x1 = np.zeros((1, DIM))
    cond = np.zeros((1, COND))
    rng = np.random.default_rng(0)
    for nfe in (0, 9):
        with pytest.raises(ValueError):
            sample_multistep(m, x1, cond, nfe, rng)
    assert m.eval_count == 0


def test_sampling_deterministic_given_seed():
    m = make_model(seed=29)
    x1 = np.array([[0.5, 0.5, -0.5]])
    cond = np.ones((1, COND))
    a = sample_multistep(m, x1, cond, 2, np.random.default_rng(30))
    b = sample_multistep(m, x1, cond, 2, np.random.default_rng(30))
    assert np.array_equal(a, b)


def test_self_consistency_spread_basics():
    m = make_model(seed=31)
    batch = make_batch(1, seed=32)
    z = np.random.default_rng(33).standard_normal((1, DIM))
    spread = self_consistency_spread(m, batch, z)
    assert np.isfinite(spread) and spread > 0.0


def test_self_consistency_spread_averages_rows():
    m = make_model(seed=31)
    batch = make_batch(3, seed=34)
    z = np.random.default_rng(35).standard_normal((3, DIM))
    rows = [self_consistency_spread(m, row(batch, i), z[i:i + 1]) for i in range(3)]
    assert self_consistency_spread(m, batch, z) == pytest.approx(np.mean(rows), rel=1e-12)


# ---------------------------------------------------------------------------
# Stereo enhancement loss
# ---------------------------------------------------------------------------

def test_enhancement_loss_zero_at_perfect_mono_reconstruction():
    frames = np.random.default_rng(34).standard_normal((4, 6))
    assert stereo_enhancement_loss(frames, frames, frames, frames) == 0.0


def test_enhancement_loss_clamp_kills_repulsion_at_zero_reconstruction():
    rng = np.random.default_rng(35)
    left = rng.standard_normal((4, 6))
    right = rng.standard_normal((4, 6))
    # Perfect reconstruction of genuinely different channels: the clamped
    # repulsion is capped by the zero reconstruction error.
    assert stereo_enhancement_loss(left, right, left, right) == 0.0


def test_enhancement_loss_mono_collapse_costs_more():
    # Equal reconstruction error, different channel separation: the mono
    # pair must score strictly worse.
    ref = np.zeros((3, 4))
    a = np.full((3, 4), 0.5)
    mono = stereo_enhancement_loss(a, a, ref, ref)
    split = stereo_enhancement_loss(a, -a, ref, ref)
    recon = 2.0 * np.sum(a * a)
    assert mono == pytest.approx(recon)
    assert split < mono


def test_enhancement_loss_weight_scaling():
    ref = np.zeros((2, 2))
    gen_l = np.ones((2, 2))
    gen_r = -np.ones((2, 2))
    recon = 8.0
    # Separation 16 clamps down to the reconstruction error 8.
    for w in (0.0, 0.1, 0.5):
        loss = stereo_enhancement_loss(gen_l, gen_r, ref, ref,
                                       repulsion_weight=w)
        assert loss == pytest.approx(recon - w * recon)


def test_enhancement_loss_shape_mismatch():
    with pytest.raises(ValueError):
        stereo_enhancement_loss(np.zeros((2, 3)), np.zeros((2, 3)),
                                np.zeros((2, 3)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# Evaluation budgets
# ---------------------------------------------------------------------------

def test_nfe_times_single_call_starts_at_top():
    grid = make_grid(8)
    assert nfe_times(grid, 1) == [8]
    assert grid.nodes[8] == grid.t_max


def test_nfe_times_spreads_budget_over_grid():
    grid = make_grid(8)
    assert nfe_times(grid, 4) == [8, 6, 4, 2]
    assert nfe_times(grid, 8) == list(range(8, 0, -1))
    # Uneven budgets round to the nearest node.
    assert nfe_times(grid, 3) == [8, 5, 3]


def test_nfe_times_are_strictly_descending():
    grid = make_grid(12)
    for nfe in (1, 2, 4, 8):
        indices = nfe_times(grid, nfe)
        assert len(indices) == nfe
        assert all(i1 > i2 for i1, i2 in zip(indices, indices[1:]))


def test_nfe_times_rejects_bad_budgets():
    with pytest.raises(ValueError):
        nfe_times(make_grid(8), 0)
    with pytest.raises(ValueError):
        nfe_times(make_grid(2), 4)


def test_nfe_times_feed_multistep_sampler():
    # The sampler walks nfe_times' nodes: re-noise, then denoise, at each.
    m = make_model()
    x1 = np.random.default_rng(0).normal(size=(5, DIM))
    cond = np.zeros((5, COND))
    out = sample_multistep(m, x1, cond, 4, np.random.default_rng(1))
    rng = np.random.default_rng(1)
    x0_hat = 0.0
    for i in nfe_times(m.grid, 4):
        x0_hat = denoise(m, _state(m, i, x0_hat, x1, rng.standard_normal(x1.shape)), i, cond)
    assert out.shape == (5, DIM)
    assert np.array_equal(out, x0_hat)


def test_denoise_memory_per_row_at_the_recipe_width():
    # The forward keeps one pre-activation per hidden layer and one shared
    # activation buffer: 5 x 192 float64 values, about 7.7 KB per row.
    cfg = default_config()
    rng = np.random.default_rng(0)
    online = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden,
                           depth=cfg.depth, time_embed_dim=cfg.time_embed_dim)
    m = cfg.model(online.flat, online.flat.copy())
    rows = 4096
    x_t = rng.standard_normal((rows, 2))
    cond = rng.standard_normal((rows, 2))
    i = m.grid.n_steps
    denoise(m, x_t, i, cond)
    tracemalloc.start()
    try:
        denoise(m, x_t, i, cond)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows <= 9e3
