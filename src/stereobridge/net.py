"""Conditional denoiser MLP with hand-written reverse-mode gradients.

The network maps a batch ``(x_t, t, cond)`` to a raw (batch, data_dim)
output: ``x_t`` and ``cond`` are (batch, features) arrays with one row per
item, and ``t`` is one time or one per row.  Inputs are concatenated as
``[x_t, time_embedding(t), cond]`` and passed through SiLU hidden layers;
the final layer is linear and zero-initialized so a fresh network outputs
exactly zero.

Gradients are computed by explicit backpropagation in float64, which keeps
every parameter checkable against central finite differences and makes
training bitwise deterministic for a fixed seed.  One loop runs the
forward's input and hidden layers over row blocks, carrying every hidden
value negated: the input is negated once, each layer computes ``-z = (-a)
@ W - b`` and ``-a = -z / (1 + exp(-z))``, and the output layer, run once
over the whole last hidden activation, ``b - (-a) @ W``.  Negation is exact
and rounding to nearest is symmetric in sign, so these are the textbook
values negated bit for bit, up to the sign of a sum that is exactly zero,
and the SiLU needs no negation pass.  Training's pass is the loop's
one-block case: it keeps the negated input and one negated pre-activation
array per hidden layer, from which :func:`backward` recomputes the
activations by the forward's own operations, and peaks at about 8 KB per
float64 row at the recipe's width 192 and depth 4.  Sampling and the
EMA-target pass keep nothing and run blocks of ``FORWARD_BLOCK_ROWS`` rows
in one reused scratch block, keeping only the last hidden activation whole:
the blocks' products are bitwise the whole array's, but the output layer's
2-wide product changes bits with its row count.  At the recipe this peaks
at about 1.9 KB per float64 row and 1.0 KB per float32 row at 4096 rows
(0.8 KB at 100,000), and depth adds nothing.

The forward runs in its parameters' dtype: the input is assembled in it,
the biases are views of ``flat`` and every buffer is allocated in it.
Training, Adam, the EMA and library sampling hold float64 parameters.  The
``sample`` command runs the checkpoint's float32 net, which halves a
forward's memory per row; the bridge states around it stay float64.

A checkpoint holds the optimizer step, the run config's bytes (parsed by
:mod:`stereobridge.config`, the one record of the layer layout and EMA
decay) and the online flat vector as little-endian float32, cast once by
the writer, which refuses a vector float32 cannot hold.

One parameter type: online parameters, the EMA target, gradients and the
Adam moments are all :class:`DenoiserParams`: one contiguous vector
``flat``, the layer widths and the time-embedding width, and nothing else.
``flat`` holds layer 0's weight matrix, layer 0's bias, layer 1's weight
matrix and so on, in C order; ``weights[i]`` and ``biases[i]`` are views
laid over it from the widths, so writing either writes the other.  The data
and conditioning dimensions follow from the widths, and
:func:`parameter_count` is the one count of a layout's values.
:func:`adam_step` and :func:`ema_update` work on the whole vector and update
their arguments in place: they return the objects they were given, and a
caller that needs the old values must copy them first; the EMA decay is
an argument of :func:`ema_update`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace

import numpy as np


# Adam's first-moment decay and denominator guard, at the published values
# (Kingma & Ba, arXiv 1412.6980); the second-moment decay is a run setting.
ADAM_BETA1 = 0.9
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """A training step's loss is non-finite, or its net exceeds float32."""


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass
class DenoiserParams:
    """The denoiser's parameters: one flat vector (float64 in training,
    float32 when read from a checkpoint), its widths and time-embedding width.

    ``widths`` runs from the input width through the hidden widths to the
    output width, so layer ``i`` maps ``widths[i]`` features to
    ``widths[i + 1]``.  ``weights[i]``, of shape (fan_in, fan_out), and
    ``biases[i]`` are views laid over ``flat`` in that order; activations
    multiply on the left.  The input layer takes ``data_dim +
    time_embed_dim + cond_dim`` features and the output layer emits
    ``data_dim``.  A ``flat`` whose size is not :func:`parameter_count` of
    the widths, or an odd ``time_embed_dim``, raises ``ValueError``.
    """

    flat: np.ndarray = field(repr=False, compare=False)
    widths: tuple
    time_embed_dim: int
    weights: list = field(init=False)
    biases: list = field(init=False)

    def __post_init__(self):
        if self.time_embed_dim % 2:
            raise ValueError(f"time-embedding width {self.time_embed_dim} is odd")
        size = parameter_count(self.widths)
        if size != self.flat.size:
            raise ValueError(f"layers hold {size} values, flat vector {self.flat.size}")
        self.weights, self.biases = [], []
        end = 0
        for fan_in, fan_out in zip(self.widths, self.widths[1:]):
            start, end = end, end + fan_in * fan_out
            self.weights.append(self.flat[start:end].reshape(fan_in, fan_out))
            start, end = end, end + fan_out
            self.biases.append(self.flat[start:end])

    @property
    def data_dim(self) -> int:
        return self.widths[-1]

    @property
    def cond_dim(self) -> int:
        return self.widths[0] - self.widths[-1] - self.time_embed_dim

    @property
    def n_layers(self) -> int:
        return len(self.widths) - 1

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
    them, ``step`` and the two preallocated vectors of ``scratch`` in place.
    Those hold nothing between calls, so the training loop lends one to
    :func:`ema_update`.
    """

    m: DenoiserParams
    v: DenoiserParams
    step: int
    lr: float
    beta2: float
    scratch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.scratch = (np.empty_like(self.m.flat), np.empty_like(self.m.flat))


def layer_widths(data_dim: int, cond_dim: int, hidden: int, depth: int,
                 time_embed_dim: int) -> tuple:
    """Input width, ``depth`` hidden widths and the output width."""
    return (data_dim + time_embed_dim + cond_dim,) + (hidden,) * depth + (data_dim,)


def parameter_count(widths) -> int:
    """Weights and biases of the layers between consecutive widths."""
    return sum(a * b + b for a, b in zip(widths, widths[1:]))


def init_denoiser(
    rng: np.random.Generator,
    data_dim: int,
    cond_dim: int,
    hidden: int,
    depth: int,
    time_embed_dim: int,
) -> DenoiserParams:
    """:func:`draw_denoiser` over the widths of these dimensions.

    ``depth`` counts hidden layers, so the network has ``depth + 1`` weight
    matrices in total; ``time_embed_dim`` must be even.
    """
    widths = layer_widths(data_dim, cond_dim, hidden, depth, time_embed_dim)
    return draw_denoiser(rng, widths, time_embed_dim)


def draw_denoiser(rng: np.random.Generator, widths: tuple,
                  time_embed_dim: int) -> DenoiserParams:
    """He-normal hidden layers and a zero final layer, drawn layer by layer."""
    p = DenoiserParams(np.zeros(parameter_count(widths)), widths, time_embed_dim)
    for w in p.weights[:-1]:
        w[:] = rng.standard_normal(w.shape) * np.sqrt(2.0 / w.shape[0])
    return p


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def time_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of times in [0, 1].

    Frequencies are geometric between 1 and 1000 cycles over the unit
    interval; returns shape (..., dim).
    """
    t = np.asarray(t, dtype=np.float64)
    freqs = np.exp(np.linspace(0.0, np.log(1000.0), dim // 2))
    angles = 2.0 * np.pi * t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


def _negated_silu(nz, out):
    """``-silu(z) = nz / (1 + exp(nz))`` of ``nz = -z``, written into ``out``
    and returned."""
    np.exp(nz, out=out)
    out += 1.0
    return np.divide(nz, out, out=out)


def _input_columns(p: DenoiserParams, x_t, t, cond):
    """The network input's three column groups: the state, the time
    embedding with one row per state (a view for a scalar time) and the
    conditioning."""
    if x_t.shape[1] != p.data_dim:
        raise ValueError(f"state dim {x_t.shape[1]} != data_dim {p.data_dim}")
    if cond.shape[1] != p.cond_dim:
        raise ValueError(f"cond dim {cond.shape[1]} != cond_dim {p.cond_dim}")
    if cond.shape[0] != x_t.shape[0]:
        raise ValueError(f"cond has {cond.shape[0]} rows, state {x_t.shape[0]}")
    emb = time_embedding(t, p.time_embed_dim)
    return x_t, np.broadcast_to(emb, (len(x_t), p.time_embed_dim)), cond


# Rows per block of the cache-free forward's input and hidden layers.  Their
# products are bitwise those of the whole array for blocks of 2 rows or more
# on OpenBLAS (1 and 2 threads, float32 and float64); the 2-wide output
# product is not, so it runs once over the whole last activation.  At 4096
# rows, 256-row blocks ran about 9 % slower than one block (more, smaller
# threaded gemm calls), while 512 and 1024 were within noise of one block and
# of each other over 30 interleaved rounds; 512 holds half the scratch.
FORWARD_BLOCK_ROWS = 512


def forward_with_cache(p: DenoiserParams, x_t, t, cond, keep: bool):
    """Run the network, keeping what backprop needs when ``keep`` is true.

    Returns ``(output, cache)`` where output has shape (batch, data_dim), in
    the parameters' dtype.  One loop runs the input and hidden layers over
    row blocks (see the module docstring), then the output layer runs once
    over the whole last hidden activation.  With ``keep`` the batch is one
    block and the cache is ``(-network input, [-hidden pre-activations])``,
    the textbook arrays negated, each a fresh array; the activations, the
    last among them, share one buffer and are not kept (:func:`backward`
    recomputes them).  Without ``keep`` the cache is ``None`` and the blocks
    are ``FORWARD_BLOCK_ROWS`` rows, a shorter tail joining the block before
    it; a block's input and layers reuse one scratch block and the last
    hidden activation goes into one whole array, so memory does not grow
    with depth.  The modes run the same operations on the same values, so
    their outputs are bitwise equal.
    """
    columns = _input_columns(p, x_t, t, cond)
    rows, dtype, widths = len(x_t), p.flat.dtype, p.widths
    layers = list(zip(p.weights[:-1], p.biases[:-1]))
    starts = [0] if keep else range(
        0, max(rows // FORWARD_BLOCK_ROWS, 1) * FORWARD_BLOCK_ROWS, FORWARD_BLOCK_ROWS)
    if keep:
        nx, pre_acts = np.empty((rows, widths[0]), dtype), []
        buf = np.empty(rows * max(widths[1:-1], default=0), dtype)
        last = buf[:rows * widths[-2]].reshape(rows, widths[-2]) if layers else nx
    else:
        last = np.empty((rows, widths[-2]), dtype)
        # The last block is the largest.  A block's input goes into the second
        # half, which its first layer's SiLU overwrites once the matmul has read it.
        pre, buf = np.empty((2, (rows - starts[-1]) * max(widths[:-1])), dtype)
    # The SiLU's exp(-z) overflows to inf below z = -88.7 in float32 (-709 in
    # float64; the recipe's pre-activations reach -87.3), where -z / inf is
    # the negated SiLU's limit +0.0: not worth a warning.  Any other overflow
    # ends in a non-finite output, which callers reject.
    with np.errstate(over="ignore"):
        for lo, hi in zip(starts, [*starts[1:], rows]):
            # Contiguous views, so each matmul is the call a fresh array gets.
            n = hi - lo
            na = nx if keep else (buf[:n * widths[0]].reshape(n, widths[0]) if layers
                                  else last[lo:hi])
            np.concatenate([c[lo:hi] for c in columns], axis=1, out=na)
            if hi == rows:  # Free a per-row time embedding before the layers.
                columns = None
            np.negative(na, out=na)
            for k, (w, b) in enumerate(layers, 1):
                nz = np.matmul(na, w, out=None if keep else
                               pre[:n * w.shape[1]].reshape(n, w.shape[1]))
                nz -= b
                if keep:
                    pre_acts.append(nz)
                dest = last[lo:hi] if k == len(layers) else buf[:nz.size].reshape(nz.shape)
                na = _negated_silu(nz, dest)
    pre = buf = nz = None  # Free the scratch before the output layer allocates.
    out = np.matmul(last, p.weights[-1])
    np.subtract(p.biases[-1], out, out=out)
    return out, ((nx, pre_acts) if keep else None)


def backward(p: DenoiserParams, cache, d_out: np.ndarray) -> DenoiserParams:
    """Backpropagate ``d_out = dL/d(output)`` to parameter gradients.

    Carries ``-delta`` from ``-d_out``, as the forward carries ``-a``.  Each
    hidden activation is recomputed from its cached negated pre-activation
    ``nz = -z``: ``e = 1 + exp(nz)`` gives both the negated activation
    ``nz / e`` and, through ``s = 1 / e``, the SiLU slope ``s * (1 - nz * (1
    - s))``, by the forward's operations in its order.  Weight gradients are
    ``(-a).T @ (-delta)`` and bias gradients ``-sum(-delta)``, so each is
    the textbook value up to the sign of an exact zero, to which Adam is
    blind.  The gradients have ``p``'s layout and are written straight into
    a fresh flat vector's views.
    """
    nx, pre_acts = cache
    grads = replace(p, flat=np.empty_like(p.flat))
    nd = -d_out
    # exp(-z) overflows where the forward's did, to the same finite limits.
    with np.errstate(over="ignore"):
        for i in range(p.n_layers - 1, 0, -1):
            nz = pre_acts[i - 1]
            e = 1.0 + np.exp(nz)
            np.matmul((nz / e).T, nd, out=grads.weights[i])
            np.negative(np.sum(nd, axis=0), out=grads.biases[i])
            s = 1.0 / e
            nd = (nd @ p.weights[i].T) * (s * (1.0 - nz * (1.0 - s)))
    np.matmul(nx.T, nd, out=grads.weights[0])
    np.negative(np.sum(nd, axis=0), out=grads.biases[0])
    return grads


def loss_and_grads(p: DenoiserParams, batch, loss_fn):
    """Scalar loss and parameter gradients for a batch: training's gradient
    driver, the one forward-then-backward pass.

    ``batch`` is a ``(x_t, t, cond)`` triple of arrays and ``loss_fn`` maps
    the network outputs (batch, data_dim) to ``(loss, dL/d_outputs)``.  The
    split keeps the differentiation generic: any smooth output-space loss,
    the consistency loss among them, can be checked against finite
    differences.  A non-finite loss raises :class:`TrainingError`.
    """
    x_t, t, cond = batch
    out, cache = forward_with_cache(p, x_t, t, cond, True)
    loss, d_out = loss_fn(out)
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite loss {loss!r} on batch of {out.shape[0]} "
            f"(|x| max {np.max(np.abs(x_t)):.3g})"
        )
    return float(loss), backward(p, cache, d_out)


# ---------------------------------------------------------------------------
# Optimizer and EMA
# ---------------------------------------------------------------------------

def init_adam(p: DenoiserParams, lr: float, beta2: float) -> AdamState:
    return AdamState(m=p.zeros_like(), v=p.zeros_like(), step=0, lr=lr, beta2=beta2)


def _check_layout(p: DenoiserParams, other: DenoiserParams, what: str) -> None:
    if other.widths != p.widths:
        raise ValueError(f"{what} widths {other.widths} do not match the "
                         f"parameters' widths {p.widths}")


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
    s, u = state.scratch
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
               decay: float, scratch: np.ndarray) -> DenoiserParams:
    """theta_bar <- decay * theta_bar + (1 - decay) * theta, in place.

    ``scratch``, a float64 vector of the parameters' size, receives the
    product ``(1 - decay) * theta``, so a call allocates nothing.  Returns
    ``target``.
    """
    _check_layout(online, target, "EMA")
    np.multiply(target.flat, decay, out=target.flat)
    np.multiply(online.flat, 1.0 - decay, out=scratch)
    np.add(target.flat, scratch, out=target.flat)
    return target


# ---------------------------------------------------------------------------
# Checkpoint container
# ---------------------------------------------------------------------------

_MAGIC = b"SBDENOIS"
_VERSION = 4
# Magic, version, optimizer step, run-config byte count, online net values.
_HEAD = struct.Struct("<8sIQIQ")


def _need(size: int, offset: int, need: int, what: str) -> None:
    if offset + need > size:
        raise ValueError(
            f"checkpoint truncated at byte {offset}: {what} needs {need} "
            f"bytes, {size - offset} left"
        )


def save_checkpoint(path, step: int, config: bytes, online: np.ndarray) -> None:
    """Write the optimizer step, the run config's bytes and the online flat
    vector, as little-endian float32, to a versioned container.  A finite
    value past float32's range raises :class:`TrainingError` before the file
    is opened; non-finite values are written, and refused when read."""
    with np.errstate(over="ignore"):
        values = online.astype("<f4")
    lost = np.isinf(values) & np.isfinite(online)
    if lost.any():
        raise TrainingError(f"the online net holds {np.max(np.abs(online[lost])):.3g}, "
                            f"beyond the float32 range of the checkpoint")
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(_MAGIC, _VERSION, step, len(config), online.size) + config)
        fh.write(values)


def load_checkpoint(path):
    """Read a container written by :func:`save_checkpoint`.

    Returns ``(step, config, online)``: the config bytes as stored, parsed
    by the caller, and the online flat vector, read from the file straight
    into a fresh float32 array; it equals the saved vector cast to float32.
    A truncated container, one with trailing bytes or one holding a
    non-finite value raises ``ValueError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        _need(size, 0, _HEAD.size, "header")
        magic, version, step, config_len, count = _HEAD.unpack(fh.read(_HEAD.size))
        if magic != _MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        _need(size, _HEAD.size, config_len, "run config")
        start = _HEAD.size + config_len
        _need(size, start, 4 * count, "online net")
        if start + 4 * count != size:
            raise ValueError(f"checkpoint has {size - start - 4 * count} "
                             f"trailing bytes")
        config = fh.read(config_len)
        online = np.empty(count, "<f4")
        # A file cut short after its size was taken reads short.
        _need(start + fh.readinto(online), start, 4 * count, "online net")
    if not np.all(np.isfinite(online)):
        raise ValueError("checkpoint online net holds a non-finite value")
    return step, config, online
