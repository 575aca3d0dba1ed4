import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from stereobridge.config import default_config, load_run, parse_config, save_run
from stereobridge.net import (
    ADAM_BETA1,
    ADAM_EPS,
    FORWARD_BLOCK_ROWS,
    DenoiserParams,
    TrainingError,
    adam_step,
    backward,
    ema_update,
    forward_with_cache,
    init_adam,
    init_denoiser,
    load_checkpoint,
    loss_and_grads,
    parameter_count,
    time_embedding,
)


def he_final_layer(p, rng):
    """Draw the zero-initialized final layer as the hidden layers are drawn."""
    w = p.weights[-1]
    w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])


def fresh_probe_net(rng):
    """Width-8 / depth-2 network, small enough for exhaustive FD checks."""
    return init_denoiser(rng, data_dim=3, cond_dim=2, hidden=8, depth=2,
                         time_embed_dim=4)


def probe_net(seed=0):
    """The probe network with a random final layer, so gradients reach every
    layer."""
    rng = np.random.default_rng(seed)
    p = fresh_probe_net(rng)
    he_final_layer(p, rng)
    return p


def probe_batch(seed=1, batch=5):
    rng = np.random.default_rng(seed)
    x_t = rng.standard_normal((batch, 3))
    t = rng.uniform(0.05, 0.95, size=batch)
    cond = rng.standard_normal((batch, 2))
    return x_t, t, cond


def flat_index_pairs(p):
    for i in range(p.n_layers):
        for idx in np.ndindex(p.weights[i].shape):
            yield ("w", i, idx)
        for idx in np.ndindex(p.biases[i].shape):
            yield ("b", i, idx)


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------

def test_time_embedding_hand_values():
    # dim=4 -> frequencies [1, 1000]; at t=0.25 the unit-frequency pair is
    # (sin(pi/2), cos(pi/2)) = (1, 0).
    e = time_embedding(0.25, 4)
    assert e.shape == (4,)
    assert e[0] == pytest.approx(1.0)
    assert e[2] == pytest.approx(0.0, abs=1e-9)


def test_time_embedding_batch_shape():
    e = time_embedding(np.linspace(0.1, 0.9, 7), 32)
    assert e.shape == (7, 32)
    assert np.all(np.abs(e) <= 1.0 + 1e-15)


def test_scalar_time_input_equals_a_full_time_column_bitwise():
    p = probe_net()
    x_t, _, cond = probe_batch(batch=64)
    for t in (0.0, 0.37, 0.999):
        # The kept cache's first entry is the negated assembled input.
        out_a, (a, _) = forward_with_cache(p, x_t, t, cond, True)
        out_b, (b, _) = forward_with_cache(p, x_t, np.full(64, t), cond, True)
        assert a.shape == (64, p.widths[0])
        assert np.array_equal(a, b)
        assert np.array_equal(out_a, out_b)


def test_zero_final_layer_outputs_zero():
    p = fresh_probe_net(np.random.default_rng(0))
    x_t, t, cond = probe_batch()
    out, _ = forward_with_cache(p, x_t, t, cond, True)
    assert np.array_equal(out, np.zeros_like(out))


def test_forward_is_deterministic():
    p = probe_net()
    x_t, t, cond = probe_batch()
    a, _ = forward_with_cache(p, x_t, t, cond, True)
    b, _ = forward_with_cache(p, x_t, t, cond, True)
    assert np.array_equal(a, b)


def test_forward_sensitive_to_conditioning():
    p = probe_net()
    x_t = np.ones((1, 3))
    a, _ = forward_with_cache(p, x_t, 0.5, np.array([[0.0, 0.0]]), True)
    b, _ = forward_with_cache(p, x_t, 0.5, np.array([[1.0, 0.0]]), True)
    assert np.max(np.abs(a - b)) > 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [16, 64, 4096])
@pytest.mark.parametrize("hidden", [192, 120])
def test_forward_without_cache_equals_the_cached_pass_bitwise(hidden, rows, dtype):
    # One loop runs both modes: the cached pass as one block, the cache-free
    # pass over row blocks into reused scratch, by the same operations.
    rng = np.random.default_rng(rows + hidden)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=hidden, depth=4,
                      time_embed_dim=16)
    he_final_layer(p, rng)
    p = replace(p, flat=p.flat.astype(dtype))
    x_t, cond = rng.standard_normal((rows, 2)), rng.standard_normal((rows, 2))
    kept, _ = forward_with_cache(p, x_t, 0.7, cond, True)
    dropped, cache = forward_with_cache(p, x_t, 0.7, cond, False)
    assert cache is None
    assert dropped.dtype == kept.dtype == dtype
    assert np.array_equal(dropped, kept)


def test_kept_pass_memory_per_row_at_the_recipe_width():
    # The cache's negated input (288 B per float64 row) and four 192-wide
    # pre-activations (6 KB) plus one activation buffer that the last
    # activation shares (1.5 KB): about 8.0 KB per row.  A pre-activation
    # scratch block would add 1.5 KB, and holding the per-row time
    # embedding through the layers 0.26 KB.
    cfg = default_config()
    rng = np.random.default_rng(0)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden, depth=cfg.depth,
                      time_embed_dim=cfg.time_embed_dim)
    rows = 4096
    x_t, cond = rng.standard_normal((rows, 2)), rng.standard_normal((rows, 2))
    t = rng.uniform(0.0, 1.0, size=rows)
    forward_with_cache(p, x_t, t, cond, True)
    tracemalloc.start()
    try:
        forward_with_cache(p, x_t, t, cond, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / rows <= 8.1e3


def test_forward_shape_errors():
    p = probe_net()
    with pytest.raises(ValueError):
        forward_with_cache(p, np.zeros((1, 4)), 0.5, np.zeros((1, 2)), True)
    with pytest.raises(ValueError):
        forward_with_cache(p, np.zeros((1, 3)), 0.5, np.zeros((1, 5)), True)
    # cond needs one row per state; a single row is not broadcast.
    with pytest.raises(ValueError, match="rows"):
        forward_with_cache(p, np.zeros((4, 3)), 0.5, np.zeros((1, 2)), True)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def quadratic_loss(target):
    def loss_fn(out):
        diff = out - target
        return 0.5 * np.sum(diff * diff), diff
    return loss_fn


def test_gradients_match_finite_differences_everywhere():
    p = probe_net(seed=3)
    x_t, t, cond = probe_batch(seed=4)
    target = np.random.default_rng(5).standard_normal(x_t.shape)
    loss_fn = quadratic_loss(target)
    _, grads = loss_and_grads(p, (x_t, t, cond), loss_fn)

    h = 1e-5
    for kind, i, idx in flat_index_pairs(p):
        tensor = p.weights[i] if kind == "w" else p.biases[i]
        grad = grads.weights[i][idx] if kind == "w" else grads.biases[i][idx]
        orig = tensor[idx]
        tensor[idx] = orig + h
        hi, _ = loss_and_grads(p, (x_t, t, cond), loss_fn)
        tensor[idx] = orig - h
        lo, _ = loss_and_grads(p, (x_t, t, cond), loss_fn)
        tensor[idx] = orig
        fd = (hi - lo) / (2.0 * h)
        rel = abs(fd - grad) / max(abs(fd) + abs(grad), 1e-6)
        assert rel <= 1e-4, f"{kind}{i}{idx}: fd={fd} grad={grad}"


def test_constant_loss_gives_zero_gradients():
    p = probe_net()
    x_t, t, cond = probe_batch()

    def loss_fn(out):
        return 7.0, np.zeros_like(out)

    loss, grads = loss_and_grads(p, (x_t, t, cond), loss_fn)
    assert loss == 7.0
    for g in grads.weights + grads.biases:
        assert np.array_equal(g, np.zeros_like(g))


def test_linear_net_matches_normal_equation_gradient():
    # depth=0 leaves a single linear layer, so the quadratic-loss gradient
    # has the closed form A^T (A W + b - Y) with A the assembled inputs.
    rng = np.random.default_rng(11)
    p = init_denoiser(rng, data_dim=2, cond_dim=1, hidden=8, depth=0,
                      time_embed_dim=4)
    he_final_layer(p, rng)
    assert p.n_layers == 1
    x_t = rng.standard_normal((6, 2))
    t = rng.uniform(0.1, 0.9, size=6)
    cond = rng.standard_normal((6, 1))
    target = rng.standard_normal((6, 2))

    _, grads = loss_and_grads(p, (x_t, t, cond), quadratic_loss(target))

    a = np.concatenate([x_t, time_embedding(t, 4), cond], axis=1)
    resid = a @ p.weights[0] + p.biases[0] - target
    assert np.allclose(grads.weights[0], a.T @ resid, rtol=1e-12, atol=1e-12)
    assert np.allclose(grads.biases[0], resid.sum(axis=0), rtol=1e-12, atol=1e-12)


def test_non_finite_loss_raises_training_error():
    p = probe_net()
    x_t, t, cond = probe_batch()

    def loss_fn(out):
        return np.inf, np.zeros_like(out)

    with pytest.raises(TrainingError):
        loss_and_grads(p, (x_t, t, cond), loss_fn)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def scalar_params(value=2.0, bias=0.5):
    return DenoiserParams(np.array([value, bias]), widths=(1, 1), time_embed_dim=0)


def unit_grads():
    return scalar_params(value=1.0, bias=1.0)


def test_adam_zero_gradients_no_op():
    p = probe_net()
    state = init_adam(p, lr=0.1, beta2=0.999)
    zeros = p.zeros_like()
    before = p.copy()
    new_p, new_state = adam_step(state, p, zeros)
    for a, b in zip(new_p.weights, before.weights):
        assert np.array_equal(a, b)
    for a, b in zip(new_p.biases, before.biases):
        assert np.array_equal(a, b)
    assert new_state.step == 1


def test_adam_first_step_size_is_lr():
    # Bias correction makes the first update lr * g / (|g| + eps) for any
    # constant gradient, hence almost exactly lr here.
    p = scalar_params()
    state = init_adam(p, lr=1e-4, beta2=0.999)
    before = p.copy()
    new_p, _ = adam_step(state, p, unit_grads())
    step = before.weights[0][0, 0] - new_p.weights[0][0, 0]
    assert step == pytest.approx(1e-4, rel=1e-6)
    step_b = before.biases[0][0] - new_p.biases[0][0]
    assert step_b == pytest.approx(1e-4, rel=1e-6)


def test_adam_moments_decay_after_gradients_stop():
    p = scalar_params()
    state = init_adam(p, lr=1e-3, beta2=0.999)
    p, state = adam_step(state, p, unit_grads())
    m_after = state.m.weights[0][0, 0]
    zeros = p.zeros_like()
    for _ in range(3):
        p, state = adam_step(state, p, zeros)
    assert state.m.weights[0][0, 0] == pytest.approx(m_after * 0.9 ** 3)
    assert state.step == 4


def equal_count_layouts():
    """Two layouts of 16 values each, laid out by different widths."""
    a = DenoiserParams(np.zeros(16), widths=(3, 3, 1), time_embed_dim=0)
    b = DenoiserParams(np.ones(16), widths=(4, 2, 2), time_embed_dim=0)
    return a, b


def test_adam_shape_mismatch_rejected():
    p, grads = equal_count_layouts()
    state = init_adam(p, lr=1e-4, beta2=0.999)
    with pytest.raises(ValueError, match=r"\(4, 2, 2\).*\(3, 3, 1\)"):
        adam_step(state, p, grads)
    assert not p.flat.any() and state.step == 0


def test_ema_rejects_a_layout_of_other_widths():
    target, online = equal_count_layouts()
    with pytest.raises(ValueError, match=r"\(3, 3, 1\).*\(4, 2, 2\)"):
        ema_update(target, online, 0.5, np.empty_like(online.flat))
    assert not target.flat.any()


def test_training_loop_bitwise_deterministic():
    def run():
        rng = np.random.default_rng(42)
        p = probe_net(seed=7)
        state = init_adam(p, lr=1e-3, beta2=0.999)
        for _ in range(5):
            x_t = rng.standard_normal((4, 3))
            t = rng.uniform(0.1, 0.9, size=4)
            cond = rng.standard_normal((4, 2))
            tgt = rng.standard_normal((4, 3))
            _, grads = loss_and_grads(p, (x_t, t, cond), quadratic_loss(tgt))
            p, state = adam_step(state, p, grads)
        return p

    a = run()
    b = run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)


# ---------------------------------------------------------------------------
# EMA
# ---------------------------------------------------------------------------

def test_ema_decay_zero_copies_online():
    p = probe_net(seed=8)
    target = probe_net(seed=9)
    new = ema_update(target, p, 0.0, np.empty_like(p.flat))
    for tw, ow in zip(new.weights, p.weights):
        assert np.array_equal(tw, ow)


def test_ema_decay_one_freezes_target():
    p = probe_net(seed=8)
    target = probe_net(seed=9)
    before = target.copy()
    new = ema_update(target, p, 1.0, np.empty_like(p.flat))
    for tw, old in zip(new.weights + new.biases, before.weights + before.biases):
        assert np.array_equal(tw, old)


def test_ema_half_decay_arithmetic():
    online = scalar_params(value=2.0)
    online.biases[0][:] = 2.0
    target = scalar_params(value=0.0, bias=0.0)
    new = ema_update(target, online, 0.5, np.empty_like(online.flat))
    assert new.weights[0][0, 0] == 1.0
    assert new.biases[0][0] == 1.0


def test_adam_never_touches_ema():
    p = probe_net(seed=8)
    target = p.copy()
    before = [w.copy() for w in target.weights] + [b.copy() for b in target.biases]
    state = init_adam(p, lr=0.5, beta2=0.999)
    adam_step(state, p, replace(p, flat=np.ones_like(p.flat)))
    after = list(target.weights) + list(target.biases)
    for old, new in zip(before, after):
        assert np.array_equal(old, new)


def reference_adam_tensor(m, v, g, t, lr, beta1, beta2, eps):
    """Per-tensor Adam with fresh arrays: the reference the flat update matches."""
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    return m, v, lr * m_hat / (np.sqrt(v_hat) + eps)


def test_flat_adam_and_ema_match_per_tensor_reference_bitwise():
    p = probe_net(seed=30)
    target = probe_net(seed=31)
    state = init_adam(p, lr=3e-3, beta2=0.99)
    ref_p = [a.copy() for a in p.weights + p.biases]
    ref_ema = [a.copy() for a in target.weights + target.biases]
    ref_m = [np.zeros_like(a) for a in ref_p]
    ref_v = [np.zeros_like(a) for a in ref_p]
    rng = np.random.default_rng(32)
    for t in range(1, 7):
        state.lr = 3e-3 / t
        g = [rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-4, 1) for a in ref_p]
        grads = p.zeros_like()
        for view, values in zip(grads.weights + grads.biases, g):
            view[:] = values
        assert adam_step(state, p, grads) == (p, state)
        assert ema_update(target, p, 0.8, state.scratch[0]) is target
        for k in range(len(ref_p)):
            ref_m[k], ref_v[k], delta = reference_adam_tensor(
                ref_m[k], ref_v[k], g[k], t, state.lr, ADAM_BETA1, state.beta2, ADAM_EPS)
            ref_p[k] = ref_p[k] - delta
        ref_ema = [0.8 * e + (1.0 - 0.8) * o for e, o in zip(ref_ema, ref_p)]
        for got, want in ((p, ref_p), (target, ref_ema), (state.m, ref_m), (state.v, ref_v)):
            for a, b in zip(got.weights + got.biases, want):
                assert np.array_equal(a, b)
    assert state.step == 6


def bits(a):
    """The array's bit patterns, which tell -0.0 from 0.0 as ``==`` does not."""
    return a.view(f"u{a.itemsize}")


def reference_layers(p, x_t, t, cond):
    """Every activation and pre-activation by the textbook formulas, in the
    parameters' dtype: a fresh ``z = a @ W + b`` and ``a = z / (1 +
    exp(-z))`` per layer; exp(-z) may overflow to its limit."""
    emb = time_embedding(t, p.time_embed_dim)
    emb = np.broadcast_to(emb, (len(x_t), p.time_embed_dim))
    a = np.concatenate([x_t, emb, cond], axis=1).astype(p.flat.dtype)
    acts, pre_acts = [a], []
    with np.errstate(over="ignore"):
        for i in range(p.n_layers):
            z = a @ p.weights[i] + p.biases[i]
            pre_acts.append(z)
            a = z / (1.0 + np.exp(-z)) if i < p.n_layers - 1 else z
            acts.append(a)
    return acts, pre_acts


def reference_forward_backward(p, x_t, t, cond, d_out):
    """Output and per-layer gradients by the textbook formulas: every
    activation kept (:func:`reference_layers`), and the SiLU slope ``s * (1
    + z * (1 - s))`` with ``s = 1 / (1 + exp(-z))``."""
    acts, pre_acts = reference_layers(p, x_t, t, cond)
    g_w, g_b = [None] * p.n_layers, [None] * p.n_layers
    delta = d_out
    with np.errstate(over="ignore"):
        for i in range(p.n_layers - 1, -1, -1):
            g_w[i] = acts[i].T @ delta
            g_b[i] = np.sum(delta, axis=0)
            if i > 0:
                z = pre_acts[i - 1]
                s = 1.0 / (1.0 + np.exp(-z))
                delta = (delta @ p.weights[i].T) * (s * (1.0 + z * (1.0 - s)))
    return acts[-1], g_w, g_b


@pytest.mark.parametrize("batch", [16, 4096])
def test_forward_and_backward_match_per_layer_reference_bitwise(batch):
    rng = np.random.default_rng(40)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=192, depth=4, time_embed_dim=32)
    he_final_layer(p, rng)
    # Wide inputs drive pre-activations far into both SiLU tails.
    x_t = 4.0 * rng.standard_normal((batch, 2))
    t = rng.uniform(0.0, 1.0, size=batch)
    cond = 4.0 * rng.standard_normal((batch, 2))
    d_out = rng.standard_normal((batch, 2))
    out, cache = forward_with_cache(p, x_t, t, cond, True)
    grads = backward(p, cache, d_out)
    ref_out, ref_w, ref_b = reference_forward_backward(p, x_t, t, cond, d_out)
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sampling_forward_is_bytewise_the_reference_at_every_grid_node(dtype, keep):
    # The sampling configuration: the recipe's layout, 4096 rows, and one
    # scalar time per call, a grid node as `sample` passes it.
    cfg = default_config()
    rng = np.random.default_rng(42)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden, depth=cfg.depth,
                      time_embed_dim=cfg.time_embed_dim)
    he_final_layer(p, rng)
    p = replace(p, flat=p.flat.astype(dtype))
    # Wide inputs drive pre-activations far into both SiLU tails.
    x_t = 4.0 * rng.standard_normal((4096, 2))
    cond = 4.0 * rng.standard_normal((4096, 2))
    for t in cfg.time_grid().nodes:
        out, _ = forward_with_cache(p, x_t, t, cond, keep)
        acts, _ = reference_layers(p, x_t, t, cond)
        assert out.dtype == acts[-1].dtype == dtype
        assert np.array_equal(bits(out), bits(acts[-1])), t


R = FORWARD_BLOCK_ROWS
BLOCK_EDGE_ROWS = [1, 15, 16, 17, R - 1, R, R + 1, 2 * R - 1, 2 * R, 2 * R + 1, 4096, 4097]


@pytest.mark.parametrize("per_row_t", [False, True])
@pytest.mark.parametrize("keep", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
def test_forward_is_bitwise_the_reference_at_block_edges(rows, dtype, keep, per_row_t):
    # The reference multiplies whole arrays, so the sampling pass's row
    # blocks, and the tail that joins the last of them, must not change a
    # bit of the output at any row count.
    cfg = default_config()
    rng = np.random.default_rng(rows)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden, depth=cfg.depth,
                      time_embed_dim=cfg.time_embed_dim)
    he_final_layer(p, rng)
    p = replace(p, flat=p.flat.astype(dtype))
    x_t = 4.0 * rng.standard_normal((rows, 2))
    cond = 4.0 * rng.standard_normal((rows, 2))
    t = rng.uniform(0.0, 1.0, size=rows) if per_row_t else 0.37
    out, _ = forward_with_cache(p, x_t, t, cond, keep)
    acts, _ = reference_layers(p, x_t, t, cond)
    assert out.dtype == acts[-1].dtype == dtype
    assert np.array_equal(bits(out), bits(acts[-1]))


def sign_edge_net(dtype, z):
    """The probe layout with two hidden units pinned in every row of the
    first hidden layer: unit 0's pre-activation is exactly zero (a zero
    weight column and bias) and unit 1's is ``z``, past exp's range."""
    p = probe_net(seed=50)
    p.weights[0][:, :2] = 0.0
    p.biases[0][:2] = 0.0, z
    return replace(p, flat=p.flat.astype(dtype))


@pytest.mark.parametrize("dtype, z", [(np.float32, -100.0), (np.float64, -800.0)])
def test_sign_edge_units_match_the_reference_and_adam_is_blind_to_zero_signs(dtype, z):
    p = sign_edge_net(dtype, z)
    x_t, t, cond = probe_batch(seed=51, batch=16)
    d_out = np.random.default_rng(52).standard_normal((16, 3)).astype(dtype)
    ref_out, ref_w, ref_b = reference_forward_backward(p, x_t, t, cond, d_out)
    dropped, _ = forward_with_cache(p, x_t, t, cond, False)
    out, cache = forward_with_cache(p, x_t, t, cond, True)
    assert np.array_equal(cache[1][0][:, :2], np.broadcast_to([0.0, -z], (16, 2)))
    for got in (dropped, out):
        assert got.dtype == dtype
        assert np.array_equal(bits(got), bits(ref_out))
    # Gradients equal the reference's by value; bytes may differ only in
    # the sign of an exact zero, as the pinned units' products are ±0.
    grads = backward(p, cache, d_out)
    ref = p.zeros_like()
    for view, want in zip(ref.weights + ref.biases, ref_w + ref_b):
        view[:] = want
    assert np.array_equal(grads.flat, ref.flat)
    assert np.all(grads.flat[bits(grads.flat) != bits(ref.flat)] == 0.0)
    # Adam maps +0 and -0 to the same update.
    stepped = [adam_step(init_adam(q, lr=1e-3, beta2=0.99), q, g)[0]
               for q, g in ((p.copy(), grads), (p.copy(), ref))]
    assert np.array_equal(bits(stepped[0].flat), bits(stepped[1].flat))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_layer_runs_in_the_parameters_dtype(dtype):
    rng = np.random.default_rng(41)
    p = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=192, depth=4, time_embed_dim=32)
    he_final_layer(p, rng)
    p = replace(p, flat=p.flat.astype(dtype))
    # The caller's state, times and conditioning stay float64.
    x_t = rng.standard_normal((64, 2))
    t = rng.uniform(0.0, 1.0, size=64)
    cond = rng.standard_normal((64, 2))
    out, (x, pre_acts) = forward_with_cache(p, x_t, t, cond, True)
    assert x.dtype == dtype
    assert [z.dtype for z in pre_acts] == [dtype] * 4
    assert out.dtype == dtype
    # Every operand in the parameters' dtype: a float64 scratch buffer or
    # bias would round differently from this all-`dtype` reference.
    a = np.concatenate([x_t, time_embedding(t, 32), cond], axis=1).astype(dtype)
    for i in range(p.n_layers):
        z = a @ p.weights[i] + p.biases[i]
        a = z / (1.0 + np.exp(-z)) if i < p.n_layers - 1 else z
    assert a.dtype == dtype
    assert np.array_equal(out, a)


@pytest.mark.parametrize("dtype, z", [(np.float32, -100.0), (np.float64, -800.0)])
def test_silu_past_the_exp_range_is_its_limit_without_a_warning(dtype, z):
    # Widths (4, 1, 1): the hidden pre-activation is z * x_t, and the output
    # layer passes the activation through.
    p = DenoiserParams(np.zeros(parameter_count((4, 1, 1)), dtype), (4, 1, 1), 2)
    p.weights[0][0, 0] = z
    p.weights[1][0, 0] = 1.0
    out, (_, [pre]) = forward_with_cache(p, np.ones((1, 1)), 0.5, np.zeros((1, 1)), True)
    # The cache holds the negated pre-activation.
    assert pre[0, 0] == -z
    assert out[0, 0] == 0.0


def test_layer_arrays_are_views_of_the_flat_vector():
    p = probe_net()
    # Widths 9, 8, 8, 3: the data, time-embedding and conditioning widths
    # in, two hidden layers, the data width out.
    assert p.widths == (9, 8, 8, 3) and p.n_layers == 3
    assert (p.data_dim, p.cond_dim, p.time_embed_dim) == (3, 2, 4)
    assert [w.shape for w in p.weights] == [(9, 8), (8, 8), (8, 3)]
    assert p.flat.size == parameter_count(p.widths) == 80 + 72 + 27
    p.flat[:] = np.arange(p.flat.size)
    assert np.array_equal(np.concatenate([a.ravel() for pair in zip(p.weights, p.biases)
                                          for a in pair]), p.flat)
    p.biases[-1][0] = -1.0
    assert -1.0 in p.flat
    copy = p.copy()
    copy.flat[:] = 0.0
    assert p.biases[-1][0] == -1.0


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# A run off the defaults in every section the model reads; its denoiser has
# widths 6, 3, 3 and 2: 41 parameters.
SMALL = parse_config({
    "schema_version": 1,
    "schedule": {"beta1": 5.0},
    "grid": {"n_steps": 4},
    "model": {"hidden": 3, "depth": 2, "time_embed_dim": 2, "sigma_data": 0.5},
    "optimizer": {"ema_decay": 0.97},
    "toy": {"prior_sigma": 0.7},
    "run": {"seed": 3},
})


def small_model(cfg=SMALL, seed=13):
    """``cfg``'s consistency model with a random online net."""
    rng = np.random.default_rng(seed)
    online = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden,
                           depth=cfg.depth, time_embed_dim=cfg.time_embed_dim)
    he_final_layer(online, rng)
    return cfg.model(online.flat)


def test_checkpoint_round_trips_bitwise(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    cfg, loaded, step = load_run(path)

    assert cfg == SMALL
    assert step == 7
    # The file holds the net sample runs: the saved vector cast to float32.
    assert loaded.online.flat.dtype == np.float32
    assert np.array_equal(loaded.online.flat, model.online.flat.astype(np.float32))
    assert loaded.online.data_dim == loaded.online.cond_dim == 2
    assert (cfg.ema_decay, loaded.sigma_data, loaded.sched) == (0.97, 0.5, SMALL.schedule())
    assert np.array_equal(loaded.grid.nodes, SMALL.time_grid().nodes)


def test_loaded_model_holds_one_net(tmp_path):
    # The EMA target only trains the online net, so a loaded model carries
    # no copy of it: what load_run leaves allocated is the float32 vector.
    cfg = default_config()
    path = tmp_path / "model.ckpt"
    save_run(path, cfg, small_model(cfg), 1)
    load_run(path)
    tracemalloc.start()
    try:
        _, model, _ = load_run(path)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert not hasattr(model, "target")
    assert held < 1.1 * model.online.flat.nbytes


def test_checkpoint_v4_bytes_are_pinned(tmp_path):
    # Exactly representable values make the container bytes platform-free;
    # the digest is that of the v4 format, which every saved checkpoint uses.
    model = small_model()
    model.online.flat[:] = np.arange(model.online.flat.size) / 8.0
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    blob = path.read_bytes()
    config = SMALL.to_json().encode()
    assert blob[32:32 + len(config)] == config
    assert len(blob) == 32 + len(config) + 4 * 41
    assert hashlib.sha256(blob).hexdigest() == (
        "2dcfdf95c262ab8a5e2aaf49f30534d09f3c2975e75fddc6799c17e98782443f")

    cfg, loaded, step = load_run(path)
    again = tmp_path / "again.ckpt"
    save_run(again, cfg, loaded, step)
    assert again.read_bytes() == blob


@pytest.mark.parametrize("entries, value, shown", [((0, 0), 1e39, "1e+39"),
                                                   (..., 1e308, "1e+308")],
                         ids=["one_1e39", "all_1e308"])
def test_checkpoint_refuses_a_net_beyond_float32_range(entries, value, shown, tmp_path):
    # Finite in float64 but past float32's largest value (3.4e38): the writer
    # names the magnitude and refuses before it opens the file, so the good
    # checkpoint already at the path stays as it was.
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, small_model(), 7)
    good = path.read_bytes()
    model = small_model()
    model.online.weights[0][entries] = value
    with pytest.raises(TrainingError, match=rf"{re.escape(shown)}.*float32"):
        save_run(path, SMALL, model, 8)
    assert path.read_bytes() == good


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, small_model(), 7)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="1 trailing bytes"):
        load_checkpoint(path)


def test_checkpoint_loaded_params_behave_identically(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    online = load_run(path)[1].online
    saved = replace(model.online, flat=model.online.flat.astype(np.float32))
    rng = np.random.default_rng(15)
    x_t, t, cond = rng.standard_normal((5, 2)), rng.uniform(size=5), rng.standard_normal((5, 2))
    assert np.array_equal(forward_with_cache(saved, x_t, t, cond, True)[0],
                          forward_with_cache(online, x_t, t, cond, True)[0])


def test_checkpoint_truncated_at_any_byte_raises_value_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, small_model(), 7)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ValueError, match=r"truncated at byte \d+") as info:
            load_run(cut)
        assert int(re.search(r"byte (\d+)", str(info.value)).group(1)) <= n


def test_checkpoint_single_bit_flips_load_or_raise_value_error(tmp_path):
    # Every one-bit corruption of a tiny checkpoint, its run config included,
    # either still loads or is rejected as malformed; no other exception
    # escapes the reader.
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, small_model(), 7)
    blob = path.read_bytes()
    flipped = tmp_path / "flipped.ckpt"
    outcomes = {"loaded": 0, "rejected": 0}
    for bit in range(8 * len(blob)):
        corrupt = bytearray(blob)
        corrupt[bit // 8] ^= 1 << (bit % 8)
        flipped.write_bytes(corrupt)
        try:
            load_run(flipped)
        except ValueError:
            outcomes["rejected"] += 1
        else:
            outcomes["loaded"] += 1
    assert outcomes["loaded"] > 0 and outcomes["rejected"] > 0


def test_checkpoint_non_finite_value_raises_value_error(tmp_path):
    model = small_model()
    model.online.weights[0][1, 2] = np.nan
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    with pytest.raises(ValueError, match="online net holds a non-finite value"):
        load_run(path)


@pytest.mark.parametrize("fault", ["dims", "count"])
def test_checkpoint_layout_mismatch_raises_value_error(tmp_path, fault):
    # The stored net must fit the layers of the stored config, whether the
    # config's layout is wider than the net or the header counts more values
    # than the layout holds.
    model = small_model()
    wide = small_model(replace(SMALL, hidden=4))
    path = tmp_path / "model.ckpt"
    if fault == "dims":
        save_run(path, replace(SMALL, hidden=4), model, 7)
        message = "layers hold 58 values, flat vector 41"
    else:
        save_run(path, SMALL, wide, 7)
        message = "layers hold 41 values, flat vector 58"
    with pytest.raises(ValueError, match=message):
        load_run(path)
