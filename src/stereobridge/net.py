"""Conditional denoiser MLP with hand-written reverse-mode gradients.

The network maps ``(x_t, t, cond)`` to a raw output of the data dimension.
Inputs are concatenated as ``[x_t, time_embedding(t), cond]`` and passed
through SiLU hidden layers; the final layer is linear and zero-initialized
so a fresh network outputs exactly zero.

Gradients are computed by explicit backpropagation in float64, which keeps
every parameter checkable against central finite differences and makes
training bitwise deterministic for a fixed seed.  Checkpoints use a small
versioned binary container of named little-endian float64 arrays.

One parameter type: online parameters, the EMA target, gradients and the
Adam moments are all :class:`DenoiserParams`, each one contiguous float64
vector ``flat`` holding layer 0's weight matrix, layer 0's bias, layer 1's
weight matrix and so on, in C order.  ``weights[i]`` and ``biases[i]`` are
reshaped views into it, so writing either writes the other.
:func:`adam_step` and :func:`ema_update` work on the whole vector and update
their arguments in place: they return the objects they were given, and a
caller that needs the old values must copy them first.  The EMA decay
belongs to the consistency model, not to the parameters: it is an argument
of :func:`ema_update` and is stored in the checkpoint beside both nets.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np


# Adam's first-moment decay and denominator guard, at the published values
# (Kingma & Ba, arXiv 1412.6980); the second-moment decay is a run setting.
ADAM_BETA1 = 0.9
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Raised when a training step produces a non-finite loss or gradient."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class DenoiserParams:
    """MLP weights and biases as views into one flat vector, plus the fixed
    embedding/conditioning dimensions.

    ``weights[i]`` has shape (fan_in, fan_out); activations multiply on the
    left.  The input layer accepts ``data_dim + time_embed_dim + cond_dim``
    features and the output layer emits ``data_dim`` features.  Built from
    per-layer arrays alone, the arrays are packed into a fresh vector; built
    with ``flat`` as well, views of the given arrays' shapes are laid over
    ``flat`` and the arrays' own values are ignored.
    """

    weights: list
    biases: list
    data_dim: int
    time_embed_dim: int
    cond_dim: int
    flat: np.ndarray = field(default=None, kw_only=True, repr=False, compare=False)

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("need one bias per weight matrix")
        arrays = [a for pair in zip(self.weights, self.biases) for a in pair]
        if self.flat is None:
            self.flat = np.concatenate([np.ravel(a) for a in arrays],
                                       dtype=np.float64)
        views, offset = [], 0
        for a in arrays:
            shape = np.shape(a)
            size = math.prod(shape)
            views.append(self.flat[offset:offset + size].reshape(shape))
            offset += size
        if offset != self.flat.size:
            raise ValueError(f"layers hold {offset} values, flat vector {self.flat.size}")
        self.weights, self.biases = views[0::2], views[1::2]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "DenoiserParams":
        """Deep copy with a fresh flat vector."""
        return replace(self, flat=self.flat.copy())

    def zeros_like(self) -> "DenoiserParams":
        """Zero-filled parameters of the same layout."""
        return replace(self, flat=np.zeros_like(self.flat))


@dataclass
class AdamState:
    """Adam moment accumulators, step count, learning rate and second-moment
    decay; the first-moment decay and epsilon are ``ADAM_BETA1`` and
    ``ADAM_EPS``.

    ``m`` and ``v`` have the parameters' layout; :func:`adam_step` updates
    them, ``step`` and two preallocated scratch vectors in place.
    """

    m: DenoiserParams
    v: DenoiserParams
    step: int
    lr: float
    beta2: float
    _scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._scratch = (np.empty_like(self.m.flat), np.empty_like(self.m.flat))


def layer_widths(data_dim: int, cond_dim: int, hidden: int, depth: int,
                 time_embed_dim: int) -> list:
    """Input width, ``depth`` hidden widths and the output width."""
    return [data_dim + time_embed_dim + cond_dim] + [hidden] * depth + [data_dim]


def init_denoiser(
    rng: np.random.Generator,
    data_dim: int,
    cond_dim: int,
    hidden: int,
    depth: int,
    time_embed_dim: int,
) -> DenoiserParams:
    """He-normal hidden layers and a zero final layer.

    ``depth`` counts hidden layers, so the network has ``depth + 1`` weight
    matrices in total.
    """
    if time_embed_dim % 2 != 0:
        raise ValueError("time_embed_dim must be even")
    dims = layer_widths(data_dim, cond_dim, hidden, depth, time_embed_dim)
    weights, biases = [], []
    for i in range(len(dims) - 1):
        fan_in, fan_out = dims[i], dims[i + 1]
        if i == len(dims) - 2:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        weights.append(w)
        biases.append(np.zeros(fan_out))
    return DenoiserParams(
        weights=weights,
        biases=biases,
        data_dim=data_dim,
        time_embed_dim=time_embed_dim,
        cond_dim=cond_dim,
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _frequencies(half: int) -> np.ndarray:
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), half))
    freqs.setflags(write=False)
    return freqs


def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of times in [0, 1].

    Frequencies are geometric between 1 and 1000 cycles over the unit
    interval; returns shape (..., dim).
    """
    t = np.asarray(t, dtype=np.float64)
    angles = 2.0 * np.pi * t[..., None] * _frequencies(dim // 2)
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _silu(x):
    return x / (1.0 + np.exp(-x))


def _silu_grad(x):
    s = 1.0 / (1.0 + np.exp(-x))
    return s * (1.0 + x * (1.0 - s))


def _assemble_input(p: DenoiserParams, x_t, t, cond) -> np.ndarray:
    x_t = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    if x_t.shape[1] != p.data_dim:
        raise ValueError(f"state dim {x_t.shape[1]} != data_dim {p.data_dim}")
    if cond.shape[1] != p.cond_dim:
        raise ValueError(f"cond dim {cond.shape[1]} != cond_dim {p.cond_dim}")
    t = np.asarray(t, dtype=np.float64)
    if t.ndim == 0:
        t = np.full(x_t.shape[0], float(t))
    if cond.shape[0] == 1 and x_t.shape[0] > 1:
        cond = np.broadcast_to(cond, (x_t.shape[0], cond.shape[1]))
    emb = time_embedding(t, p.time_embed_dim)
    return np.concatenate([x_t, emb, cond], axis=1)


def forward_with_cache(p: DenoiserParams, x_t, t, cond):
    """Run the network and keep pre-activations for backprop.

    Returns ``(output, cache)`` where output has shape (batch, data_dim).
    """
    a = _assemble_input(p, x_t, t, cond)
    pre_acts = []
    acts = [a]
    for i in range(p.n_layers):
        z = a @ p.weights[i] + p.biases[i]
        pre_acts.append(z)
        if i < p.n_layers - 1:
            a = _silu(z)
            acts.append(a)
        else:
            a = z
    return a, (acts, pre_acts)


def forward(p: DenoiserParams, x_t, t, cond) -> np.ndarray:
    """Raw network output; a single input vector yields a 1-D result."""
    single = np.asarray(x_t).ndim == 1
    out, _ = forward_with_cache(p, x_t, t, cond)
    return out[0] if single else out


def backward(p: DenoiserParams, cache, d_out: np.ndarray) -> DenoiserParams:
    """Backpropagate ``d_out = dL/d(output)`` to parameter gradients.

    The gradients have ``p``'s layout and are written straight into a fresh
    flat vector's views.
    """
    acts, pre_acts = cache
    grads = replace(p, flat=np.empty_like(p.flat))
    delta = np.asarray(d_out, dtype=np.float64)
    for i in range(p.n_layers - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads.weights[i])
        np.sum(delta, axis=0, out=grads.biases[i])
        if i > 0:
            delta = (delta @ p.weights[i].T) * _silu_grad(pre_acts[i - 1])
    return grads


def loss_and_grads(p: DenoiserParams, batch, loss_fn):
    """Scalar loss and parameter gradients for a batch.

    ``batch`` is a ``(x_t, t, cond)`` triple of arrays and ``loss_fn`` maps
    the network outputs (batch, data_dim) to ``(loss, dL/d_outputs)``.  The
    split keeps the differentiation generic: any smooth output-space loss
    can be checked against finite differences.
    """
    x_t, t, cond = batch
    out, cache = forward_with_cache(p, x_t, t, cond)
    loss, d_out = loss_fn(out)
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite loss {loss!r} on batch of {out.shape[0]} "
            f"(|x| max {np.max(np.abs(np.asarray(x_t))):.3g})"
        )
    return float(loss), backward(p, cache, d_out)


# ---------------------------------------------------------------------------
# Optimizer and EMA
# ---------------------------------------------------------------------------

def init_adam(p: DenoiserParams, lr: float, beta2: float) -> AdamState:
    return AdamState(m=p.zeros_like(), v=p.zeros_like(), step=0, lr=lr, beta2=beta2)


def _check_layout(p: DenoiserParams, other: DenoiserParams, what: str) -> None:
    if other.n_layers != p.n_layers:
        raise ValueError(f"{what} layer count does not match parameters")
    for i in range(p.n_layers):
        if (other.weights[i].shape != p.weights[i].shape
                or other.biases[i].shape != p.biases[i].shape):
            raise ValueError(f"{what} shape mismatch at layer {i}")


def adam_step(state: AdamState, p: DenoiserParams, grads: DenoiserParams):
    """One bias-corrected Adam update of ``p``, in place.

    Updates ``p``, ``state.m``, ``state.v`` and ``state.step`` in place and
    returns ``(p, state)``.  Each operation keeps the elementwise order of
    the per-tensor form ``m = b1*m + (1-b1)*g``, ``v = b2*v + ((1-b2)*g)*g``,
    ``p -= lr*m_hat / (sqrt(v_hat) + eps)``, so the result is bitwise equal
    to it; folding the bias corrections into one scalar would not be.
    """
    _check_layout(p, grads, "gradient")
    t = state.step + 1
    b1, b2 = ADAM_BETA1, state.beta2
    g, m, v = grads.flat, state.m.flat, state.v.flat
    s, u = state._scratch
    np.multiply(m, b1, out=m)                 # m = b1*m + (1-b1)*g
    np.multiply(g, 1.0 - b1, out=s)
    np.add(m, s, out=m)
    np.multiply(v, b2, out=v)                 # v = b2*v + ((1-b2)*g)*g
    np.multiply(g, 1.0 - b2, out=s)
    np.multiply(s, g, out=s)
    np.add(v, s, out=v)
    np.divide(v, 1.0 - b2 ** t, out=s)        # s = sqrt(v_hat) + eps
    np.sqrt(s, out=s)
    np.add(s, ADAM_EPS, out=s)
    np.divide(m, 1.0 - b1 ** t, out=u)        # u = lr*m_hat / s
    np.multiply(u, state.lr, out=u)
    np.divide(u, s, out=u)
    np.subtract(p.flat, u, out=p.flat)
    state.step = t
    return p, state


def ema_update(target: DenoiserParams, online: DenoiserParams,
               decay: float) -> DenoiserParams:
    """theta_bar <- decay * theta_bar + (1 - decay) * theta, in place.

    Returns ``target``.
    """
    _check_layout(online, target, "EMA")
    np.multiply(target.flat, decay, out=target.flat)
    np.add(target.flat, np.multiply(online.flat, 1.0 - decay), out=target.flat)
    return target


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"SBDENOIS"
_VERSION = 1


def _pack_array(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f8")
    name_b = name.encode("ascii")
    head = struct.pack("<I", len(name_b)) + name_b
    head += struct.pack("<I", arr.ndim)
    head += struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b""
    return head + arr.tobytes()


def _need(buf: bytes, offset: int, size: int, what: str) -> None:
    if offset + size > len(buf):
        raise ValueError(
            f"checkpoint truncated at byte {offset}: {what} needs {size} "
            f"bytes, {len(buf) - offset} left"
        )


def _read(fmt: str, buf: bytes, offset: int, what: str):
    """Unpack ``fmt`` at ``offset``; returns ``(values, next offset)``."""
    size = struct.calcsize(fmt)
    _need(buf, offset, size, what)
    return struct.unpack_from(fmt, buf, offset), offset + size


def _array_table(buf: bytes) -> dict:
    """Name -> read-only float64 view into ``buf`` for every stored array."""
    (magic,), offset = _read("8s", buf, 0, "magic")
    if magic != _MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}")
    (version, n_arrays), offset = _read("<II", buf, offset, "header")
    if version != _VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    table = {}
    for k in range(n_arrays):
        what = f"array {k}"
        (name_len,), offset = _read("<I", buf, offset, f"{what} name length")
        (name_b,), offset = _read(f"{name_len}s", buf, offset, f"{what} name")
        try:
            name = name_b.decode("ascii")
        except UnicodeDecodeError:
            raise ValueError(f"{what} name at byte {offset - name_len} "
                             f"is not ASCII") from None
        (ndim,), offset = _read("<I", buf, offset, f"array {name!r} rank")
        shape, offset = _read(f"<{ndim}Q", buf, offset, f"array {name!r} shape")
        count = math.prod(shape)
        _need(buf, offset, 8 * count, f"array {name!r} data")
        table[name] = np.frombuffer(buf, "<f8", count, offset).reshape(shape)
        if not np.all(np.isfinite(table[name])):
            raise ValueError(f"checkpoint array {name!r} holds a non-finite value")
        offset += 8 * count
    return table


def _check_shapes(p: DenoiserParams) -> None:
    fan_in = p.data_dim + 2 * (p.time_embed_dim // 2) + p.cond_dim
    for i, (w, b) in enumerate(zip(p.weights, p.biases)):
        if w.ndim != 2 or w.shape[0] != fan_in or b.shape != (w.shape[1],):
            raise ValueError(f"checkpoint layer {i} has weight {w.shape} and "
                             f"bias {b.shape}; expected fan-in {fan_in}")
        fan_in = w.shape[1]
    if fan_in != p.data_dim:
        raise ValueError(f"checkpoint output width {fan_in} != data_dim {p.data_dim}")


def save_checkpoint(path, online: DenoiserParams, target: DenoiserParams,
                    ema_decay: float) -> None:
    """Write both nets and the EMA decay to a flat versioned binary container."""
    arrays = [
        ("meta.dims", np.array([online.data_dim, online.time_embed_dim,
                                online.cond_dim, online.n_layers], dtype=np.float64)),
        ("meta.ema_decay", np.array(ema_decay, dtype=np.float64)),
    ]
    for i in range(online.n_layers):
        arrays.append((f"online.w{i}", online.weights[i]))
        arrays.append((f"online.b{i}", online.biases[i]))
    for i in range(target.n_layers):
        arrays.append((f"ema.w{i}", target.weights[i]))
        arrays.append((f"ema.b{i}", target.biases[i]))
    blob = b"".join([_MAGIC, struct.pack("<II", _VERSION, len(arrays))]
                    + [_pack_array(name, arr) for name, arr in arrays])
    with open(path, "wb") as fh:
        fh.write(blob)


def load_checkpoint(path):
    """Read a container written by :func:`save_checkpoint`.

    Returns ``(online, target, ema_decay)``; round-trips bitwise with the
    writer.  Each stored array is copied once, from the file buffer into the
    flat vector.  A truncated or malformed container, or one holding a
    non-finite value, raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        buf = fh.read()
    table = _array_table(buf)

    def get(name):
        try:
            return table[name]
        except KeyError:
            raise ValueError(f"checkpoint has no array {name!r}") from None

    dims = get("meta.dims")
    if (dims.shape != (4,) or not np.all(np.isfinite(dims))
            or np.any(dims < 0) or np.any(dims != np.floor(dims))):
        raise ValueError(f"bad checkpoint dimensions {dims!r}")
    data_dim, time_embed_dim, cond_dim, n_layers = (int(v) for v in dims)
    decay = get("meta.ema_decay")
    if decay.size != 1:
        raise ValueError(f"bad checkpoint EMA decay {decay!r}")
    dims_kw = dict(data_dim=data_dim, time_embed_dim=time_embed_dim,
                   cond_dim=cond_dim)

    def layers(prefix):
        return ([get(f"{prefix}.w{i}") for i in range(n_layers)],
                [get(f"{prefix}.b{i}") for i in range(n_layers)])

    online = DenoiserParams(*layers("online"), **dims_kw)
    target = DenoiserParams(*layers("ema"), **dims_kw)
    _check_shapes(online)
    _check_layout(online, target, "EMA")
    return online, target, float(decay.reshape(-1)[0])
