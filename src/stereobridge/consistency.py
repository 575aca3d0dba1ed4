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
Training, sampling and the spread probe address grid nodes by integer index
and read every coefficient from the model's per-node table, so they build
bridge states through one formula, :func:`stereobridge.bridge.bridge_state`,
and boundary outputs through another.  The network runs through one of two
entry points: :func:`_estimate` (sampling and the EMA target) and
:func:`stereobridge.net.loss_and_grads` (the online pass).  Sampling has one
path, :func:`sample_multistep`, which takes an evaluation budget: one-step
generation is its budget-1 case, so every budget draws its noise the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import net
from .bridge import bridge_state
from .net import DenoiserParams, TrainingError
from .schedule import NoiseSchedule, TimeGrid, bridge_coefficients


class NodeTable(NamedTuple):
    """Bridge and boundary coefficients at every grid node.

    Each field is a read-only (nodes, 1) column, so indexing it with a batch
    of grid indices gives a column that scales the batch's rows.  ``c_skip``
    and ``c_out`` enforce the identity map at small t:
    ``c_skip = sd^2 / (cap_sigma2 + sd^2)`` and
    ``c_out = sqrt(cap_sigma2) * sd / sqrt(sd^2 + cap_sigma2)``; as the
    bridge variance vanishes near the lower endpoint, ``c_skip -> 1`` and
    ``c_out -> 0``.
    """

    a: np.ndarray
    b: np.ndarray
    sqrt_cap_sigma2: np.ndarray
    c_skip: np.ndarray
    c_out: np.ndarray


@dataclass
class ConsistencyModel:
    """Online/EMA parameter pair plus the schedule and grid they train on.

    ``ema_decay`` is the target's decay in :func:`train_step`;
    ``sigma_data`` scales the boundary parameterization; ``eval_count``
    tallies network evaluations for function-evaluation accounting and is
    purely diagnostic.  ``table`` is computed once from the schedule, grid
    and ``sigma_data`` when the model is built; its elementwise arithmetic
    is that of :func:`bridge_coefficients`, so every entry is bitwise the
    scalar value at that node.
    """

    online: DenoiserParams
    target: DenoiserParams
    sched: NoiseSchedule
    grid: TimeGrid
    sigma_data: float
    ema_decay: float
    eval_count: int = 0
    table: NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b, cap_sigma2 = bridge_coefficients(self.sched, self.grid.nodes)
        cols = (a, b, np.sqrt(cap_sigma2), *_scalings(cap_sigma2, self.sigma_data))
        cols = tuple(c[:, None] for c in cols)
        for c in cols:
            c.setflags(write=False)
        self.table = NodeTable(*cols)


def _scalings(cap_sigma2, sigma_data):
    sd2 = sigma_data * sigma_data
    c_skip = sd2 / (cap_sigma2 + sd2)
    c_out = np.sqrt(cap_sigma2) * sigma_data / np.sqrt(sd2 + cap_sigma2)
    return c_skip, c_out


def _state(m: ConsistencyModel, i, x0, x1, z) -> np.ndarray:
    """Bridge state at grid node(s) ``i`` (an index or an index array)."""
    c = m.table
    return bridge_state(c.a[i], c.b[i], c.sqrt_cap_sigma2[i], x0, x1, z)


def _boundary(m: ConsistencyModel, i, x, raw) -> np.ndarray:
    """Boundary output ``c_skip * x + c_out * raw`` at grid node(s) ``i``."""
    return m.table.c_skip[i] * x + m.table.c_out[i] * raw


def _estimate(m: ConsistencyModel, params: DenoiserParams, x_t, i, cond) -> np.ndarray:
    """Data estimates of the network ``params`` for states at grid node(s) ``i``."""
    raw, _ = net.forward_with_cache(params, x_t, m.grid.nodes[i], cond)
    return _boundary(m, i, x_t, raw)


def denoise(m: ConsistencyModel, x_t: np.ndarray, i: int, cond: np.ndarray) -> np.ndarray:
    """Map (batch, dim) bridge states at grid node ``i`` to the online
    network's data estimates, one row per state.

    One call counts as one function evaluation regardless of batch size.
    """
    x0_hat = _estimate(m, m.online, x_t, i, cond)
    if not np.all(np.isfinite(x0_hat)):
        raise TrainingError("network produced a non-finite estimate; parameters may be corrupt")
    m.eval_count += 1
    return x0_hat


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

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
    The bridge and boundary coefficients are read by grid index from the
    model's table.  Returns ``(loss, grads)`` with the loss averaged over
    the batch; :func:`stereobridge.net.loss_and_grads` runs the online pass
    and raises :class:`TrainingError` on a non-finite loss.
    """
    if np.any(n < 0) or np.any(n >= m.grid.n_steps):
        raise IndexError("grid index out of range")

    lo, hi = n, n + 1
    # Shared-noise pair: both states sit on the trajectory of one draw z.
    x_lo = _state(m, lo, x0, x1, z)
    x_hi = _state(m, hi, x0, x1, z)
    f_tgt = _estimate(m, m.target, x_lo, lo, cond)
    batch = x0.shape[0]

    def loss_fn(raw_on):
        diff = _boundary(m, hi, x_hi, raw_on) - f_tgt
        return (float(np.mean(np.sum(diff * diff, axis=1))),
                (2.0 / batch) * m.table.c_out[hi] * diff)

    return net.loss_and_grads(m.online, (x_hi, m.grid.nodes[hi], cond), loss_fn)


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
    net.ema_update(m.target, m.online, m.ema_decay)
    return m, opt, loss


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def nfe_times(grid: TimeGrid, nfe: int):
    """Grid-node indices for a fixed evaluation budget.

    The j-th of ``nfe`` calls lands on grid node ``round(N * (1 - j/nfe))``,
    spreading the budget evenly from the top of the grid downward.  Returns
    the strictly descending node list that :func:`sample_multistep` walks;
    budgets too large for the grid collide on a node and are rejected.
    """
    if nfe < 1:
        raise ValueError("nfe must be at least 1")
    n = grid.n_steps
    indices = [round(n * (1.0 - j / nfe)) for j in range(nfe)]
    if any(i2 >= i1 for i1, i2 in zip(indices, indices[1:])):
        raise ValueError(f"budget {nfe} does not fit a grid of {n} steps")
    return indices


def sample_multistep(
    m: ConsistencyModel,
    x1: np.ndarray,
    cond: np.ndarray,
    nfe: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Alternate bridge re-noising and denoising under a budget of ``nfe``
    network evaluations, on the grid nodes :func:`nfe_times` picks.

    ``nfe = 1`` is one-step generation from the top node.  Each node draws
    one standard-normal array shaped like ``x1`` and denoises the state
    ``a * x0_hat + b * x1 + sqrt(cap_sigma2) * z`` built around the previous
    estimate.  The estimate starts at ``x0_hat = 0``, so the first state is
    bitwise ``b * x1 + sqrt(cap_sigma2) * z``: the data-endpoint term of the
    bridge mean is dropped (its weight is a few 1e-3 at the default maximum
    time and the data point is unknown at inference).
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x0_hat = 0.0
    for i in nfe_times(m.grid, nfe):
        z = rng.standard_normal(x1.shape)
        x0_hat = denoise(m, _state(m, i, x0_hat, x1, z), i, cond)
    return x0_hat


def self_consistency_spread(m: ConsistencyModel, batch, z: np.ndarray) -> float:
    """Max pairwise distance between data estimates along each trajectory.

    ``batch`` is an ``(x0, x1, cond)`` triple of (batch, dim) arrays and
    ``z`` the matching shared noise.  Builds each row's shared-noise bridge
    states at every grid node, takes the largest distance between the
    model's outputs along that trajectory and returns the mean over rows; a
    perfectly self-consistent model returns zero.
    """
    x0, x1, cond = batch
    nodes = range(len(m.grid.nodes))
    outs = np.stack([denoise(m, _state(m, i, x0, x1, z), i, cond) for i in nodes])
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
) -> float:
    """Per-channel reconstruction plus a channel-separation reward.

    Penalizes squared error against each reference channel and subtracts a
    weighted term for the distance between the two generated channels, so
    collapsing to mono costs more than keeping the channels apart.  The
    repulsion term is capped at the reconstruction error, which bounds the
    loss below by zero for weights <= 1.
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
    repulsion = min(float(np.sum((gl - gr) ** 2)), recon)
    return recon - repulsion_weight * repulsion
