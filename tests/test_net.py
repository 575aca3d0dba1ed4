import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from stereobridge.config import load_run, parse_config, save_run
from stereobridge.net import (
    ADAM_BETA1,
    ADAM_EPS,
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


def test_zero_final_layer_outputs_zero():
    p = fresh_probe_net(np.random.default_rng(0))
    x_t, t, cond = probe_batch()
    out, _ = forward_with_cache(p, x_t, t, cond)
    assert np.array_equal(out, np.zeros_like(out))


def test_forward_is_deterministic():
    p = probe_net()
    x_t, t, cond = probe_batch()
    a, _ = forward_with_cache(p, x_t, t, cond)
    b, _ = forward_with_cache(p, x_t, t, cond)
    assert np.array_equal(a, b)


def test_forward_sensitive_to_conditioning():
    p = probe_net()
    x_t = np.ones((1, 3))
    a, _ = forward_with_cache(p, x_t, 0.5, np.array([[0.0, 0.0]]))
    b, _ = forward_with_cache(p, x_t, 0.5, np.array([[1.0, 0.0]]))
    assert np.max(np.abs(a - b)) > 1e-6


def test_forward_shape_errors():
    p = probe_net()
    with pytest.raises(ValueError):
        forward_with_cache(p, np.zeros((1, 4)), 0.5, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        forward_with_cache(p, np.zeros((1, 3)), 0.5, np.zeros((1, 5)))
    # cond needs one row per state; a single row is not broadcast.
    with pytest.raises(ValueError, match="rows"):
        forward_with_cache(p, np.zeros((4, 3)), 0.5, np.zeros((1, 2)))


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
    return DenoiserParams(weights=[np.array([[value]])],
                          biases=[np.array([bias])],
                          data_dim=1, time_embed_dim=0, cond_dim=0)


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


def test_adam_shape_mismatch_rejected():
    p = probe_net()
    state = init_adam(p, lr=1e-4, beta2=0.999)
    bad = DenoiserParams([np.zeros((2, 2)) for _ in p.weights], p.biases,
                         p.data_dim, p.time_embed_dim, p.cond_dim)
    with pytest.raises(ValueError):
        adam_step(state, p, bad)


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
    new = ema_update(target, p, 0.0)
    for tw, ow in zip(new.weights, p.weights):
        assert np.array_equal(tw, ow)


def test_ema_decay_one_freezes_target():
    p = probe_net(seed=8)
    target = probe_net(seed=9)
    before = target.copy()
    new = ema_update(target, p, 1.0)
    for tw, old in zip(new.weights + new.biases, before.weights + before.biases):
        assert np.array_equal(tw, old)


def test_ema_half_decay_arithmetic():
    online = scalar_params(value=2.0)
    online.biases[0][:] = 2.0
    target = scalar_params(value=0.0, bias=0.0)
    new = ema_update(target, online, 0.5)
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
    n = p.n_layers
    ref_p = [a.copy() for a in p.weights + p.biases]
    ref_ema = [a.copy() for a in target.weights + target.biases]
    ref_m = [np.zeros_like(a) for a in ref_p]
    ref_v = [np.zeros_like(a) for a in ref_p]
    rng = np.random.default_rng(32)
    for t in range(1, 7):
        state.lr = 3e-3 / t
        g = [rng.standard_normal(a.shape) * 10.0 ** rng.uniform(-4, 1) for a in ref_p]
        grads = DenoiserParams(g[:n], g[n:], p.data_dim, p.time_embed_dim, p.cond_dim)
        assert adam_step(state, p, grads) == (p, state)
        assert ema_update(target, p, 0.8) is target
        for k in range(len(ref_p)):
            ref_m[k], ref_v[k], delta = reference_adam_tensor(
                ref_m[k], ref_v[k], g[k], t, state.lr, ADAM_BETA1, state.beta2, ADAM_EPS)
            ref_p[k] = ref_p[k] - delta
        ref_ema = [0.8 * e + (1.0 - 0.8) * o for e, o in zip(ref_ema, ref_p)]
        for got, want in ((p, ref_p), (target, ref_ema), (state.m, ref_m), (state.v, ref_v)):
            for a, b in zip(got.weights + got.biases, want):
                assert np.array_equal(a, b)
    assert state.step == 6


def reference_forward_backward(p, x_t, t, cond, d_out):
    """Output and per-layer gradients by the textbook formulas: a fresh
    ``z = a @ W + b`` and ``a = z / (1 + exp(-z))`` per layer, every
    activation kept, and the SiLU slope ``s * (1 + z * (1 - s))`` with
    ``s = 1 / (1 + exp(-z))``."""
    a = np.concatenate([x_t, time_embedding(t, p.time_embed_dim), cond], axis=1)
    acts, pre_acts = [a], []
    for i in range(p.n_layers):
        z = a @ p.weights[i] + p.biases[i]
        pre_acts.append(z)
        a = z / (1.0 + np.exp(-z)) if i < p.n_layers - 1 else z
        acts.append(a)
    g_w, g_b = [None] * p.n_layers, [None] * p.n_layers
    delta = d_out
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
    out, cache = forward_with_cache(p, x_t, t, cond)
    grads = backward(p, cache, d_out)
    ref_out, ref_w, ref_b = reference_forward_backward(p, x_t, t, cond, d_out)
    assert np.array_equal(out, ref_out)
    for got, want in zip(grads.weights + grads.biases, ref_w + ref_b):
        assert np.array_equal(got, want)


def test_layer_arrays_are_views_of_the_flat_vector():
    p = probe_net()
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
    """``cfg``'s consistency model with random online and EMA nets."""
    rng = np.random.default_rng(seed)
    online = init_denoiser(rng, data_dim=2, cond_dim=2, hidden=cfg.hidden,
                           depth=cfg.depth, time_embed_dim=cfg.time_embed_dim)
    he_final_layer(online, rng)
    return cfg.model(online.flat, rng.standard_normal(online.flat.size))


def test_checkpoint_round_trips_bitwise(tmp_path):
    model = small_model()
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    cfg, loaded, step = load_run(path)

    assert cfg == SMALL
    assert step == 7
    assert np.array_equal(loaded.online.flat, model.online.flat)
    assert np.array_equal(loaded.target.flat, model.target.flat)
    assert loaded.online.data_dim == loaded.online.cond_dim == 2
    assert (loaded.ema_decay, loaded.sigma_data, loaded.sched) == (0.97, 0.5, SMALL.schedule())
    assert np.array_equal(loaded.grid.nodes, SMALL.time_grid().nodes)


def test_checkpoint_v2_bytes_are_pinned(tmp_path):
    # Exactly representable values make the container bytes platform-free;
    # the digest is that of the v2 format, which every saved checkpoint uses.
    model = small_model()
    model.online.flat[:] = np.arange(model.online.flat.size) / 8.0
    model.target.flat[:] = -np.arange(model.target.flat.size) / 4.0
    path = tmp_path / "model.ckpt"
    save_run(path, SMALL, model, 7)
    blob = path.read_bytes()
    config = SMALL.to_json().encode()
    assert blob[32:32 + len(config)] == config
    assert len(blob) == 32 + len(config) + 2 * 8 * 41
    assert hashlib.sha256(blob).hexdigest() == (
        "65cc2f3100484e659bbdbc59e0412956fd99728abc4730e0f75de5155a134997")

    cfg, loaded, step = load_run(path)
    again = tmp_path / "again.ckpt"
    save_run(again, cfg, loaded, step)
    assert again.read_bytes() == blob


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
    rng = np.random.default_rng(15)
    x_t, t, cond = rng.standard_normal((5, 2)), rng.uniform(size=5), rng.standard_normal((5, 2))
    assert np.array_equal(forward_with_cache(model.online, x_t, t, cond)[0],
                          forward_with_cache(online, x_t, t, cond)[0])


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


@pytest.mark.parametrize("fault", ["dims", "ema"])
def test_checkpoint_layout_mismatch_raises_value_error(tmp_path, fault):
    # The stored nets must fit the layers of the stored config, and the EMA
    # net must be as long as the online net.
    model = small_model()
    wide = small_model(replace(SMALL, hidden=4))
    path = tmp_path / "model.ckpt"
    if fault == "dims":
        save_run(path, replace(SMALL, hidden=4), model, 7)
        message = "layers hold 58 values, flat vector 41"
    else:
        save_run(path, SMALL, replace(model, target=wide.target), 7)
        message = "136 trailing bytes"
    with pytest.raises(ValueError, match=message):
        load_run(path)
