import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest

from stereobridge.net import (
    ADAM_BETA1,
    ADAM_EPS,
    DenoiserParams,
    TrainingError,
    adam_step,
    ema_update,
    forward,
    init_adam,
    init_denoiser,
    load_checkpoint,
    loss_and_grads,
    save_checkpoint,
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
    out = forward(p, x_t, t, cond)
    assert np.array_equal(out, np.zeros_like(out))


def test_forward_is_deterministic():
    p = probe_net()
    x_t, t, cond = probe_batch()
    a = forward(p, x_t, t, cond)
    b = forward(p, x_t, t, cond)
    assert np.array_equal(a, b)


def test_forward_single_vector_shape():
    p = probe_net()
    out = forward(p, np.zeros(3), 0.5, np.zeros(2))
    assert out.shape == (3,)


def test_forward_sensitive_to_conditioning():
    p = probe_net()
    x_t = np.ones(3)
    a = forward(p, x_t, 0.5, np.array([0.0, 0.0]))
    b = forward(p, x_t, 0.5, np.array([1.0, 0.0]))
    assert np.max(np.abs(a - b)) > 1e-6


def test_forward_shape_errors():
    p = probe_net()
    with pytest.raises(ValueError):
        forward(p, np.zeros(4), 0.5, np.zeros(2))
    with pytest.raises(ValueError):
        forward(p, np.zeros(3), 0.5, np.zeros(5))


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

def test_checkpoint_round_trips_bitwise(tmp_path):
    online = probe_net(seed=13)
    target = probe_net(seed=14)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, online, target, 0.97)
    online2, target2, decay2 = load_checkpoint(path)

    assert online2.data_dim == online.data_dim
    assert online2.time_embed_dim == online.time_embed_dim
    assert online2.cond_dim == online.cond_dim
    assert decay2 == 0.97
    for a, b in zip(online2.weights + online2.biases,
                    online.weights + online.biases):
        assert np.array_equal(a, b)
    for a, b in zip(target2.weights + target2.biases,
                    target.weights + target.biases):
        assert np.array_equal(a, b)


def test_checkpoint_v1_bytes_are_pinned(tmp_path):
    # Exactly representable values make the container bytes platform-free;
    # the digest is that of the v1 format, which every saved checkpoint uses.
    online = probe_net(seed=13)
    online.flat[:] = np.arange(online.flat.size) / 8.0
    target = online.copy()
    target.flat[:] = -np.arange(target.flat.size) / 4.0
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, online, target, 0.97)
    blob = path.read_bytes()
    assert len(blob) == 3305
    assert hashlib.sha256(blob).hexdigest() == (
        "c9d35ca23290f72fe52eafac462b88e91f1b053e353f50a44815e2ffe87409d4")

    loaded = load_checkpoint(path)
    assert loaded[2] == 0.97
    again = tmp_path / "again.ckpt"
    save_checkpoint(again, *loaded)
    assert again.read_bytes() == blob


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_loaded_params_behave_identically(tmp_path):
    online = probe_net(seed=13)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, online, online.copy(), 0.999)
    online2, _, _ = load_checkpoint(path)
    x_t, t, cond = probe_batch(seed=15)
    assert np.array_equal(forward(online, x_t, t, cond),
                          forward(online2, x_t, t, cond))


def test_checkpoint_truncated_at_any_byte_raises_value_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, probe_net(seed=13), probe_net(seed=14), 0.999)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for n in range(len(blob)):
        cut.write_bytes(blob[:n])
        with pytest.raises(ValueError, match=r"truncated at byte \d+") as info:
            load_checkpoint(cut)
        assert int(re.search(r"byte (\d+)", str(info.value)).group(1)) <= n


def test_checkpoint_missing_array_raises_value_error(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, probe_net(seed=13), probe_net(seed=14), 0.999)
    path.write_bytes(path.read_bytes().replace(b"ema.b1", b"ema.x1"))
    with pytest.raises(ValueError, match="ema.b1"):
        load_checkpoint(path)


def test_checkpoint_non_finite_value_raises_value_error(tmp_path):
    online = probe_net(seed=13)
    online.weights[0][1, 2] = np.nan
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, online, probe_net(seed=14), 0.999)
    with pytest.raises(ValueError, match="online.w0"):
        load_checkpoint(path)


@pytest.mark.parametrize("fault", ["dims", "ema"])
def test_checkpoint_layout_mismatch_raises_value_error(tmp_path, fault):
    online = probe_net(seed=13)
    target = probe_net(seed=14)
    if fault == "dims":
        online.cond_dim += 1
    else:
        target = init_denoiser(np.random.default_rng(0), data_dim=3, cond_dim=2,
                               hidden=5, depth=2, time_embed_dim=4)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, online, target, 0.999)
    with pytest.raises(ValueError, match="layer 0"):
        load_checkpoint(path)
