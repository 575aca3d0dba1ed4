"""Teacher-free consistency training over the diffusion bridge.

The model learns a map that sends any state on one bridge trajectory back to
its initial data point.  Training regresses the online network at the upper
node of an adjacent time pair onto the EMA target network at the lower node,
with the pair built from a single shared Gaussian draw so both states sit on
one coherent trajectory.  No pretrained teacher is involved.

A boundary-respecting parameterization wraps the raw network so the map is
(approximately) the identity at the minimum processing time, which anchors
the regression chain to the data.

A batch is an ``(x0, x1, cond)`` triple of (batch, dim) arrays throughout.
Sampling has one path, :func:`sample_multistep`: one-step generation is its
single-node case, so every evaluation budget draws its noise the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import net
from .bridge import Endpoints, sample_posterior
from .net import DenoiserParams, EmaParams, TrainingError
from .schedule import NoiseSchedule, TimeGrid, bridge_coefficients


@dataclass
class ConsistencyModel:
    """Online/EMA parameter pair plus the schedule and grid they train on.

    ``sigma_data`` scales the boundary parameterization; ``eval_count``
    tallies network evaluations for function-evaluation accounting and is
    purely diagnostic.
    """

    online: DenoiserParams
    target: EmaParams
    sched: NoiseSchedule
    grid: TimeGrid
    sigma_data: float
    eval_count: int = 0

    def __post_init__(self):
        if not self.grid.t_min > 0.0:
            raise ValueError("grid must start strictly above 0")


def boundary_scalings(m: ConsistencyModel, t):
    """Skip/output scalings that enforce the identity map at small t.

    ``c_skip = sd^2 / (cap_sigma2 + sd^2)`` and
    ``c_out = sqrt(cap_sigma2) * sd / sqrt(sd^2 + cap_sigma2)``; as the
    bridge variance vanishes near the lower endpoint, ``c_skip -> 1`` and
    ``c_out -> 0``.
    """
    _, _, cap_sigma2 = bridge_coefficients(m.sched, t)
    return _scalings(cap_sigma2, m.sigma_data)


def _scalings(cap_sigma2, sigma_data):
    sd2 = sigma_data * sigma_data
    c_skip = sd2 / (cap_sigma2 + sd2)
    c_out = np.sqrt(cap_sigma2) * sigma_data / np.sqrt(sd2 + cap_sigma2)
    return c_skip, c_out


def parameterize(raw: np.ndarray, x_t: np.ndarray, t, m: ConsistencyModel) -> np.ndarray:
    """Combine the raw network output with the skip path:
    ``c_skip(t) * x_t + c_out(t) * raw``."""
    raw = np.asarray(raw, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    c_skip, c_out = boundary_scalings(m, t)
    if np.ndim(c_skip) > 0:
        c_skip = np.asarray(c_skip)[..., None]
        c_out = np.asarray(c_out)[..., None]
    return c_skip * x_t + c_out * raw


def denoise(m: ConsistencyModel, x_t, t, cond, use_target: bool = False) -> np.ndarray:
    """Map a bridge state (batch or single vector) to a data estimate.

    One call counts as one function evaluation regardless of batch size.
    """
    params = m.target if use_target else m.online
    single = np.asarray(x_t).ndim == 1
    x2 = np.atleast_2d(np.asarray(x_t, dtype=np.float64))
    raw, _ = net.forward_with_cache(params, x2, t, cond)
    if not np.all(np.isfinite(raw)):
        raise TrainingError("network produced a non-finite output; parameters may be corrupt")
    m.eval_count += 1
    out = parameterize(raw, x2, t, m)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _node_coefficients(sched: NoiseSchedule, nodes: bytes, sigma_data: float):
    """Bridge and boundary coefficients at every grid node.

    ``nodes`` is the float64 node array as bytes (the cache key).  Returns
    read-only ``(a, b, sqrt(cap_sigma2), c_skip, c_out)`` columns of shape
    (nodes, 1), so indexing one with a batch of grid indices gives a column
    that scales the batch's rows.  The elementwise arithmetic is that of
    :func:`bridge_coefficients` and :func:`boundary_scalings`, so the values
    are bitwise theirs.
    """
    a, b, cap_sigma2 = bridge_coefficients(sched, np.frombuffer(nodes))
    cols = (a, b, np.sqrt(cap_sigma2), *_scalings(cap_sigma2, sigma_data))
    cols = tuple(c[:, None] for c in cols)
    for c in cols:
        c.setflags(write=False)
    return cols


def consistency_loss_and_grads(
    m: ConsistencyModel,
    x0: np.ndarray,
    x1: np.ndarray,
    cond: np.ndarray,
    n: np.ndarray,
    z: np.ndarray,
):
    """Batched consistency loss and its gradients w.r.t. the online net.

    ``x0, x1, cond`` are (batch, dim) arrays, ``n`` an integer array of grid
    indices and ``z`` the shared standard-normal draws.  The distance is the
    squared L2 norm between the online map at the upper node and the frozen
    target map at the lower node, unweighted across grid times.
    The bridge and boundary coefficients are looked up by grid index in a
    table cached per (schedule, grid, ``sigma_data``).  Returns
    ``(loss, grads)`` with the loss averaged over the batch.
    """
    x0 = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    cond = np.atleast_2d(np.asarray(cond, dtype=np.float64))
    n = np.atleast_1d(np.asarray(n, dtype=np.intp))
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if np.any(n < 0) or np.any(n >= m.grid.n_steps):
        raise IndexError("grid index out of range")

    nodes = np.asarray(m.grid.nodes, dtype=np.float64)
    a, b, sqrt_v, c_skip, c_out = _node_coefficients(
        m.sched, nodes.tobytes(), m.sigma_data)
    lo, hi = n, n + 1
    t_lo, t_hi = nodes[lo], nodes[hi]
    # Shared-noise pair: both states sit on the trajectory of one draw z.
    x_lo = a[lo] * x0 + b[lo] * x1 + sqrt_v[lo] * z
    x_hi = a[hi] * x0 + b[hi] * x1 + sqrt_v[hi] * z

    raw_tgt, _ = net.forward_with_cache(m.target, x_lo, t_lo, cond)
    f_tgt = c_skip[lo] * x_lo + c_out[lo] * raw_tgt

    raw_on, cache = net.forward_with_cache(m.online, x_hi, t_hi, cond)
    f_on = c_skip[hi] * x_hi + c_out[hi] * raw_on

    batch = x0.shape[0]
    diff = f_on - f_tgt
    per_item = np.sum(diff * diff, axis=1)
    loss = float(np.mean(per_item))
    if not np.isfinite(loss):
        raise TrainingError(
            f"non-finite consistency loss on batch of {batch} "
            f"(indices {np.unique(n)[:8]!r})"
        )

    d_raw = (2.0 / batch) * c_out[hi] * diff
    grads = net.backward(m.online, cache, d_raw)
    return loss, grads


def train_step(m: ConsistencyModel, batch, opt: net.AdamState, rng: np.random.Generator):
    """One optimizer step over an ``(x0, x1, cond)`` batch of (batch, dim) arrays.

    Draws one uniform grid index and one shared noise vector per row,
    averages the consistency loss, applies Adam to the online parameters and
    then advances the EMA target, both in place.  Returns ``(m, opt, loss)``
    with the loss measured before the update.
    """
    x0, x1, cond = batch
    if len(x0) == 0:
        raise ValueError("empty batch")
    n = rng.integers(0, m.grid.n_steps, size=len(x0))
    z = rng.standard_normal(x0.shape)
    loss, grads = consistency_loss_and_grads(m, x0, x1, cond, n, z)
    net.adam_step(opt, m.online, grads)
    net.ema_update(m.target, m.online)
    return m, opt, loss


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def nfe_times(grid: TimeGrid, nfe: int):
    """Denoise times for a fixed evaluation budget.

    The j-th of ``nfe`` calls lands on grid node ``round(N * (1 - j/nfe))``,
    spreading the budget evenly from the top of the grid downward.  Returns
    a strictly descending list of node times suitable for
    :func:`sample_multistep`; budgets too large for the grid collide on a
    node and are rejected.
    """
    if nfe < 1:
        raise ValueError("nfe must be at least 1")
    n = grid.n_steps
    indices = [round(n * (1.0 - j / nfe)) for j in range(nfe)]
    if any(i2 >= i1 for i1, i2 in zip(indices, indices[1:])):
        raise ValueError(f"budget {nfe} does not fit a grid of {n} steps")
    return [float(grid.nodes[i]) for i in indices]


def sample_multistep(
    m: ConsistencyModel,
    x1: np.ndarray,
    cond: np.ndarray,
    times,
    rng: np.random.Generator,
) -> np.ndarray:
    """Alternate denoising and bridge re-noising down a descending time list.

    ``times`` must be a strictly descending subset of the grid nodes with
    the last entry at or above the grid minimum.  The number of network
    evaluations equals ``len(times)``; a single top node is one-step
    generation.  Each node draws one standard-normal array shaped like
    ``x1``.  The first state is ``b * x1 + sqrt(cap_sigma2) * z`` at
    ``times[0]``: the data-endpoint term of the bridge mean is dropped (its
    weight is a few 1e-3 at the default maximum time and the data point is
    unknown at inference).  Later states re-noise around the previous
    estimate, ``a * x0_hat + b * x1 + sqrt(cap_sigma2) * z``.
    """
    times = [float(t) for t in times]
    if len(times) == 0:
        raise ValueError("times must be nonempty")
    if any(t2 >= t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError(f"times must be strictly descending, got {times}")
    nodes = m.grid.nodes
    for t in times:
        if not np.any(np.abs(nodes - t) < 1e-12):
            raise ValueError(f"time {t} is not a grid node")
    if times[-1] < m.grid.t_min - 1e-12:
        raise ValueError("last time is below the grid minimum")

    x1 = np.asarray(x1, dtype=np.float64)
    z = rng.standard_normal(x1.shape)
    _, b, cap_sigma2 = bridge_coefficients(m.sched, times[0])
    x0_hat = denoise(m, b * x1 + np.sqrt(cap_sigma2) * z, times[0], cond)
    for t_next in times[1:]:
        z = rng.standard_normal(x1.shape)
        a, b, cap_sigma2 = bridge_coefficients(m.sched, t_next)
        x = a * x0_hat + b * x1 + np.sqrt(cap_sigma2) * z
        x0_hat = denoise(m, x, t_next, cond)
    return x0_hat


def self_consistency_spread(m: ConsistencyModel, batch, z: np.ndarray, indices=None) -> float:
    """Max pairwise distance between data estimates along each trajectory.

    ``batch`` is an ``(x0, x1, cond)`` triple of (batch, dim) arrays and
    ``z`` the matching shared noise.  Builds each row's shared-noise bridge
    states at the given grid indices (all nodes by default), takes the
    largest distance between the model's outputs along that trajectory and
    returns the mean over rows; a perfectly self-consistent model returns
    zero.
    """
    x0, x1, cond = batch
    if indices is None:
        indices = range(len(m.grid.nodes))
    ep = Endpoints(x0, x1)
    outs = []
    for i in indices:
        t = float(m.grid.nodes[i])
        outs.append(denoise(m, sample_posterior(ep, t, m.sched, z).x, t, cond))
    outs = np.stack(outs)
    diff = outs[:, None] - outs[None, :]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))    # (nodes, nodes, batch)
    return float(np.mean(np.max(dist, axis=(0, 1))))


# ---------------------------------------------------------------------------
# Stereo enhancement loss
# ---------------------------------------------------------------------------

def stereo_enhancement_loss(
    gen_left: np.ndarray,
    gen_right: np.ndarray,
    ref_left: np.ndarray,
    ref_right: np.ndarray,
    repulsion_weight: float = 0.1,
    clamp: bool = True,
) -> float:
    """Per-channel reconstruction plus a channel-separation reward.

    Penalizes squared error against each reference channel and subtracts a
    weighted term for the distance between the two generated channels, so
    collapsing to mono costs more than keeping the channels apart.  With
    ``clamp`` (default) the repulsion term is capped at the reconstruction
    error, which bounds the loss below by zero for weights <= 1; pass
    ``clamp=False`` for the raw, unbounded form.
    """
    gl = np.asarray(gen_left, dtype=np.float64)
    gr = np.asarray(gen_right, dtype=np.float64)
    rl = np.asarray(ref_left, dtype=np.float64)
    rr = np.asarray(ref_right, dtype=np.float64)
    if not (gl.shape == gr.shape == rl.shape == rr.shape):
        raise ValueError(
            f"all four frame blocks must share a shape, got "
            f"{gl.shape}, {gr.shape}, {rl.shape}, {rr.shape}"
        )
    recon = float(np.sum((gl - rl) ** 2) + np.sum((gr - rr) ** 2))
    repulsion = float(np.sum((gl - gr) ** 2))
    if clamp:
        repulsion = min(repulsion, recon)
    return recon - repulsion_weight * repulsion
