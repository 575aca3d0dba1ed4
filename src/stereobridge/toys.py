"""Closed-form 2-D mixture problems for end-to-end training checks.

The toy mirrors the intended use of the bridge: the far endpoint x1 is a
noisy rendition of the clean point x0 (a stand-in for an upstream encoder
output), and the model learns to refine it.  Everything stays small enough
to verify analytically.  Because the coupling is Gaussian, the posterior
over the clean point given x1 is again a Gaussian mixture, so the density,
score, and transporting velocity field of the bridge state at any time are
available in closed form.  That gives a gold-standard reference sampler to
hold the learned one-step sampler against, plus an energy-distance gauge to
compare sample sets.

The training entry point takes every setting from one run configuration
(the command line's ``RunConfig``; the reference recipe is its default),
feeds the consistency trainer ``(x0, x1, cond)`` array batches, and reports
the bookkeeping the command line and the acceptance checks need: per-step
losses, a per-step wall-clock stamp for the step callback, and
self-consistency spread snapshots taken early and at the end of the run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import net
from .bridge import VARIANCE_FLOOR, heun_integrate
from .consistency import (
    ConsistencyModel,
    sample_multistep,
    self_consistency_spread,
    train_step,
)
from .schedule import NoiseSchedule, accumulated_variances, beta_at, bridge_coefficients


# ---------------------------------------------------------------------------
# Data distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianMixture:
    """Isotropic Gaussian mixture with per-component scalar deviations."""

    means: np.ndarray    # (components, dim)
    sigmas: np.ndarray   # (components,)
    weights: np.ndarray  # (components,), positive, sums to one

    def __post_init__(self):
        means = np.asarray(self.means, dtype=np.float64)
        sigmas = np.asarray(self.sigmas, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if means.ndim != 2 or 0 in means.shape:
            raise ValueError(f"means must be (components, dim), got {means.shape}")
        k = means.shape[0]
        if sigmas.shape != (k,) or weights.shape != (k,):
            raise ValueError("sigmas and weights need one entry per component")
        if not (np.all(np.isfinite(means)) and np.all(np.isfinite(sigmas))):
            raise ValueError("mixture parameters must be finite")
        if np.any(sigmas < 0.0):
            raise ValueError("component deviations must be nonnegative")
        if not (np.all(weights > 0.0) and abs(float(weights.sum()) - 1.0) <= 1e-9):
            raise ValueError("weights must be positive and sum to one")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "sigmas", sigmas)
        object.__setattr__(self, "weights", weights)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        comp = rng.choice(self.n_components, size=n, p=self.weights)
        z = rng.standard_normal((n, self.dim))
        return self.means[comp] + self.sigmas[comp, None] * z


@dataclass(frozen=True)
class ToyProblem:
    """A mixture target coupled to a blurred observation of itself.

    The far endpoint is ``x1 = x0 + prior_sigma * noise`` — the toy analogue
    of an upstream representation that roughly locates the clean point but
    lacks its detail.  ``prior_sigma = 0`` degenerates to a pinned pair.
    """

    mixture: GaussianMixture
    prior_sigma: float

    def __post_init__(self):
        if not (np.isfinite(self.prior_sigma) and self.prior_sigma >= 0.0):
            raise ValueError("prior_sigma must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return self.mixture.dim

    def draw_pairs(self, n: int, rng: np.random.Generator):
        """Coupled (x0, x1) endpoint arrays, each (n, dim)."""
        x0 = self.mixture.sample(n, rng)
        x1 = x0 + self.prior_sigma * rng.standard_normal(x0.shape)
        return x0, x1

    def draw_prior(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Fresh far endpoints only, as seen at generation time."""
        _, x1 = self.draw_pairs(n, rng)
        return x1


def draw_training_items(problem: ToyProblem, n: int, rng: np.random.Generator):
    """A training batch: the ``(x0, x1, cond)`` triple of (n, dim) arrays.

    Draws as :meth:`ToyProblem.draw_pairs`.  The far endpoint doubles as the
    conditioning (a copy) so the denoiser sees it explicitly, mirroring how
    it is queried at sampling time.
    """
    x0, x1 = problem.draw_pairs(n, rng)
    return x0, x1, x1.copy()


# ---------------------------------------------------------------------------
# Closed-form bridge marginal
# ---------------------------------------------------------------------------

def _logsumexp(a: np.ndarray, keepdims: bool) -> np.ndarray:
    """``log(Σ exp(a))`` along axis 0, bitwise ``scipy.special.logsumexp``.

    SciPy's arithmetic as of SciPy 1.15 without its array-API dispatch: the
    maxima are taken out of the shifted sum and counted, and where that
    route is not finite (all −inf, any +inf or NaN) the direct
    ``log(Σ exp(a))`` is taken.  SciPy sets the maxima to −inf before the
    exponential; here their terms are zeroed after it, the same
    exp(−inf) = 0, because NumPy's vector ``exp`` runs several times slower
    on infinite inputs.  SciPy before 1.15 computes
    ``log(Σ exp(a − a_max)) + a_max``, which can differ in the last bit.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=0, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=0, keepdims=True, dtype=a.dtype)
        s = np.where(is_max, 0.0, np.exp(a - a_max)).sum(axis=0, keepdims=True)
        out = np.log1p(s / m) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            out = np.where(finite, out, np.log(np.exp(a).sum(axis=0, keepdims=True)))
    return out if keepdims else np.squeeze(out, axis=0)


class Posterior(NamedTuple):
    """The clean point's posterior given the far endpoints, component-major.

    It depends on ``x1`` alone, so one is built per call and reused at every
    time.  Each (k, n) or (dim, n) row is a contiguous run over the points,
    and every sum over coordinates or components adds whole rows in index
    order.  That is the order NumPy adds fewer than 8 terms of a row-major
    reduction in, so for up to 7 components and 7 coordinates the results
    are bitwise those of the row-major formula; beyond that NumPy sums
    pairwise and the two can differ in the last bits.
    """

    x1: np.ndarray           # (n, dim) far endpoints
    log_w: np.ndarray        # (k, n)
    means: np.ndarray        # (k, dim, n)
    variances: np.ndarray    # (k,)


def posterior_mixing(problem: ToyProblem, x1) -> Posterior:
    """Mixture representation of the clean point given the far endpoints.

    Conjugate update per component j (all isotropic):

        weight_j(x1) ∝ w_j · N(x1; m_j, (σ_j² + σ_p²) I)
        mean_j(x1)   = (σ_p² m_j + σ_j² x1) / (σ_j² + σ_p²)
        var_j        = σ_j² σ_p² / (σ_j² + σ_p²)

    ``x1`` is an (n, dim) array; the result is a :class:`Posterior`.
    """
    mix = problem.mixture
    if x1.shape[1] != mix.dim:
        raise ValueError(f"endpoints have dim {x1.shape[1]}, mixture has {mix.dim}")
    s2 = mix.sigmas ** 2
    p2 = problem.prior_sigma ** 2
    raw_total = s2 + p2
    total = np.maximum(raw_total, VARIANCE_FLOOR)
    centers = mix.means[:, :, None]
    coords = np.ascontiguousarray(x1.T)   # (dim, n): each row runs over the points
    diff = coords - centers
    log_like = -0.5 * mix.dim * np.log(2.0 * np.pi * total)[:, None] \
        - 0.5 * np.sum(diff * diff, axis=1) / total[:, None]
    log_w = np.log(mix.weights)[:, None] + log_like
    log_w = log_w - _logsumexp(log_w, keepdims=True)
    conjugate = (p2 * centers + s2[:, None, None] * coords) / total[:, None, None]
    # A zero-width component paired with zero prior noise pins the clean
    # point at the component mean; the conjugate ratio would return 0/floor.
    means = np.where(raw_total[:, None, None] > 0.0, conjugate, centers)
    return Posterior(x1=x1, log_w=log_w, means=means, variances=s2 * p2 / total)


def _state_mixture(post: Posterior, t, sched):
    """Log weights (k, n), means (k, dim, n) and variances (k,) at time t."""
    a, b, cap_sigma2 = bridge_coefficients(sched, t)
    means = a * post.means + b * post.x1.T
    variances = np.maximum(a * a * post.variances + cap_sigma2, VARIANCE_FLOOR)
    return post.log_w, means, variances


def _component_logpdfs(x, t, post: Posterior, sched):
    """Per-component log densities (k, n), offsets x − mean (k, dim, n), variances."""
    dim = post.means.shape[1]
    if x.shape[1] != dim:
        raise ValueError(f"points have dim {x.shape[1]}, mixture has {dim}")
    log_w, means, variances = _state_mixture(post, t, sched)
    diff = x.T - means
    ssq = np.sum(diff * diff, axis=1)
    log_comp = (
        log_w
        - 0.5 * dim * np.log(2.0 * np.pi * variances)[:, None]
        - 0.5 * ssq / variances[:, None]
    )
    return log_comp, diff, variances


def bridge_marginal_logpdf(x, t, post: Posterior, sched: NoiseSchedule):
    """Log density of the bridge state with the clean endpoint integrated out.

    The clean point is mixed over its posterior ``post``, so component j of
    the state mixture has mean a·mean_j(x1) + b·x1 and isotropic variance
    a²·var_j + Σ²; at t = 0 this is the posterior log density itself.  ``x``
    is an (n, dim) batch and ``post.x1`` is (n, dim) too, or (1, dim) for
    one endpoint that every point shares.
    """
    log_comp, _, _ = _component_logpdfs(x, t, post, sched)
    return _logsumexp(log_comp, keepdims=False)


def bridge_marginal_score(x, t, post: Posterior, sched: NoiseSchedule):
    """Gradient of :func:`bridge_marginal_logpdf` in the state argument.

    Computed through component responsibilities rather than by
    differentiating the log density numerically, so tests can play the two
    routes against each other.
    """
    log_comp, diff, variances = _component_logpdfs(x, t, post, sched)
    log_resp = log_comp - _logsumexp(log_comp, keepdims=True)
    resp = np.exp(log_resp)
    return -np.sum(resp[:, None, :] * diff / variances[:, None, None], axis=0).T


def sample_bridge_marginal(t, post: Posterior, sched: NoiseSchedule,
                           rng: np.random.Generator) -> np.ndarray:
    """Draw exact bridge states at time t, one per row of ``post.x1``."""
    log_w, means, variances = _state_mixture(post, t, sched)
    n = post.x1.shape[0]
    cum = np.cumsum(np.exp(log_w), axis=0)
    u = rng.random(n)
    comp = np.minimum((u > cum).sum(axis=0), len(variances) - 1)
    centers = means[comp, :, np.arange(n)]
    scales = np.sqrt(variances[comp])
    return centers + scales[:, None] * rng.standard_normal(post.x1.shape)


def one_component_flow(x, t, s, post: Posterior, sched: NoiseSchedule) -> np.ndarray:
    """The exact probability-flow map of states ``x`` from time t to s.

    With one component the clean point given x1 is N(μ, v), every bridge
    marginal is Gaussian and the flow is affine:

        x_s = a_s·μ + b_s·x1 + √((a_s²v + Σ_s)/(a_t²v + Σ_t))·(x − a_t·μ − b_t·x1)

    with (a, b, Σ) from :func:`bridge_coefficients`.  A posterior of more
    than one component raises ``ValueError``.
    """
    if len(post.variances) != 1:
        raise ValueError(f"the exact flow needs one component, "
                         f"the posterior has {len(post.variances)}")
    mu, v, x1 = post.means[0].T, post.variances[0], post.x1
    (a_t, b_t, c_t), (a_s, b_s, c_s) = (bridge_coefficients(sched, u) for u in (t, s))
    scale = np.sqrt((a_s * a_s * v + c_s) / (a_t * a_t * v + c_t))
    return a_s * mu + b_s * x1 + scale * (x - a_t * mu - b_t * x1)


# ---------------------------------------------------------------------------
# Reference ODE sampler
# ---------------------------------------------------------------------------

def oracle_ode_sample(
    problem: ToyProblem,
    x1: np.ndarray,
    sched: NoiseSchedule,
    rng: np.random.Generator,
    t_start: float,
    t_end: float,
    steps: int = 256,
) -> np.ndarray:
    """Reference sampler: exact start marginal plus marginal-score flow.

    Draws the start with :func:`sample_bridge_marginal` and integrates the
    flow built on :func:`bridge_marginal_score` down to ``t_end`` with the
    shared second-order integrator.  Only analytic quantities enter, making
    this a gold-standard baseline for learned samplers.  The posterior over
    the clean point depends on ``x1`` alone, so one per call serves the
    start draw and every score evaluation, which adds only time coefficients.
    """
    post = posterior_mixing(problem, x1)
    start = sample_bridge_marginal(t_start, post, sched, rng)

    def drift(x, t):
        """Velocity field whose flow preserves the bridge marginals over time.

        The bridge toward x1 follows dx = β(t)(x1 − x)/σ̄² dt + √β(t) dW
        regardless of which clean point it started from; only the initial
        distribution differs.  The deterministic flow with the same time
        marginals therefore subtracts half the squared diffusion times the
        marginal score:

            v(x, t) = β(t)(x1 − x)/σ̄²(t) − β(t)/2 · ∇log q_t(x | x1).
        """
        beta = beta_at(sched, t)
        _, sigma_bar2 = accumulated_variances(sched, t)
        sigma_bar2 = max(sigma_bar2, VARIANCE_FLOOR)
        score = bridge_marginal_score(x, t, post, sched)
        return beta * (post.x1 - x) / sigma_bar2 - 0.5 * beta * score

    return heun_integrate(drift, start, t_start, t_end, steps)


# ---------------------------------------------------------------------------
# Sample-set comparison
# ---------------------------------------------------------------------------

# Distances per block, the unit of the summation order: a block is
# ``_rows(m)`` rows against up to m points, written into two reused
# buffers of that size (2^16 float64 each, 1 MiB together, up to
# m = 2^16; one row of m beyond) so the passes over them stay in L2.  At
# 4096×4096 points on 2 vCPUs, blocks of 2^15 and 2^17 elements ran 5 %
# and 12 % slower than 2^16 in one interleaved run.
_ED_BLOCK = 2**16


def _rows(m: int) -> int:
    """Rows per block against m points."""
    return max(1, _ED_BLOCK // m)


def _block_sum(a: np.ndarray, cols: np.ndarray, scratch: np.ndarray) -> float:
    """Sum of ‖a_i − b_j‖ over all i, j for a block ``a`` whose distances
    fit in ``scratch`` and a set ``b`` given by its columns ``cols`` =
    ``b.T``, contiguous: the distances are written into ``scratch`` as
    ``d = (a0 − b0)²; d += (a1 − b1)²; …; sqrt(d)``, bitwise ``cdist``, and
    summed by one ``np.sum``."""
    d = scratch[0, :a.shape[0] * cols.shape[1]].reshape(a.shape[0], cols.shape[1])
    sq = scratch[1, :d.size].reshape(d.shape)
    np.subtract(a[:, :1], cols[0], out=d)
    np.square(d, out=d)
    for k in range(1, a.shape[1]):
        np.subtract(a[:, k:k + 1], cols[k], out=sq)
        np.square(sq, out=sq)
        d += sq
    np.sqrt(d, out=d)
    return float(d.sum())


def _scratch(m: int) -> np.ndarray:
    """The two block buffers for distances against up to m points, each on
    a 64-byte boundary: at NumPy's 16-byte alignment the passes over them
    ran 7 % slower at 4096×4096."""
    n = _rows(m) * m
    raw = np.empty(2 * n + 8)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + 2 * n].reshape(2, n)


def _cross_sum(x: np.ndarray, y: np.ndarray) -> float:
    """Sum of ‖x_i − y_j‖ over all i, j, one row block of ``x`` at a time."""
    r, cols, scratch = _rows(y.shape[0]), y.T.copy(), _scratch(y.shape[0])
    return sum(_block_sum(x[i:i + r], cols, scratch)
               for i in range(0, x.shape[0], r))


def _within_sum(a: np.ndarray) -> float:
    """Sum of ‖a_i − a_j‖ over all ordered pairs, each unordered pair
    computed once: a row block's square diagonal block in full and its
    block against every later row twice."""
    r, cols, scratch = _rows(a.shape[0]), a.T.copy(), _scratch(a.shape[0])
    total = 0.0
    for i in range(0, a.shape[0], r):
        block = a[i:i + r]
        total += (_block_sum(block, cols[:, i:i + r], scratch)
                  + 2.0 * _block_sum(block, cols[:, i + r:], scratch))
    return total


@lru_cache(maxsize=1)
def _reference_within_sum(data: bytes, shape: tuple, dtype: np.dtype) -> float:
    """``_within_sum`` of the reference set with these bytes, shape and dtype."""
    return _within_sum(np.frombuffer(data, dtype).reshape(shape))


def energy_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Energy distance between two sample sets (U-statistic, clipped at 0).

    Estimates E(X, Y)² = 2·E‖X − Y‖ − E‖X − X′‖ − E‖Y − Y′‖ with the
    within-sample means taken over distinct pairs, then takes the square
    root; the population quantity is a metric between distributions and is
    zero iff they agree.

    No n×m distance matrix is built.  Each term adds its distances in row
    order, in blocks of ``max(1, 2^16 // m)`` rows against the m points they
    are measured to, each block one ``np.sum`` over reused scratch: two
    2^16-element float64 buffers (1 MiB) up to m = 2^16, two of m beyond,
    so memory is O(max(n, m)), not O(n·m).  Each within-set term computes
    every unordered pair once and counts it twice.  Blocking changes only
    the order of the summation: results agree with the full matrices to
    about 12 digits and are bitwise the same from run to run.

    ``y`` is the reference set.  Its within-sum, about a quarter of the
    work at n = m, is memoised for the last ``y`` seen, keyed on a copy of
    its bytes, shape and dtype.  That serves one reference set scored
    against many candidates ``x``, as the acceptance criteria and the
    benchmark's scoring passes do; callers that alternate reference sets
    recompute it every call.
    """
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"sample dims differ: {x.shape[1]} vs {y.shape[1]}")
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("need at least two points per sample set")
    cross = _cross_sum(x, y) / (n * m)
    within_x = _within_sum(x) / (n * (n - 1))
    within_y = _reference_within_sum(y.tobytes(), y.shape, y.dtype) / (m * (m - 1))
    return float(np.sqrt(max(2.0 * cross - within_x - within_y, 0.0)))


# ---------------------------------------------------------------------------
# End-to-end training run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyTrainResult:
    """Outcome of one toy training run."""

    model: ConsistencyModel
    losses: np.ndarray       # (steps,) pre-update loss per step
    spread_probe: float      # mean self-consistency spread at cfg.probe_step
    spread_final: float      # same probes, measured after the last step
    wall_s: float


def run_toy_training(cfg, *, step_callback=None) -> ToyTrainResult:
    """Train the consistency denoiser on the configured toy problem.

    ``cfg`` is a :class:`stereobridge.config.RunConfig`; every setting comes
    from it, and ``default_config()`` is the reference recipe used by the
    command line and the acceptance checks.  A ``RunConfig`` validates its
    own ranges when it is built, so none are re-checked here.  The learning
    rate holds at ``cfg.lr`` for the first ``cfg.flat_fraction`` of the run
    and then ramps linearly down to ``cfg.final_lr``.  The EMA target is a
    copy of the online net local to this loop.

    Deterministic for a fixed config: one generator seeded from ``cfg.seed``
    drives initialization, data, grid-index, and noise draws, and a separate
    fixed stream supplies one probe item so the spread snapshots at
    ``cfg.probe_step`` and at the end measure the same trajectory.  Every
    batch, the probe's included, comes from :func:`draw_training_items`.

    ``step_callback(step, model, loss, wall_ms)`` fires after every
    optimizer step (steps are 1-based; ``wall_ms`` is the time since the
    first began); a trainer failure propagates after the callback has seen
    the last completed step, so callers can retain their most recent good
    state.  The model is updated in place, so a callback that keeps it must
    save or copy it.
    """
    steps, flat_fraction = cfg.steps, cfg.flat_fraction
    lr, final_lr = cfg.lr, cfg.final_lr

    problem = cfg.toy_problem()
    rng = np.random.default_rng(cfg.seed)
    model = cfg.model(net.draw_denoiser(rng, cfg.layer_widths(), cfg.time_embed_dim).flat)
    target = model.online.copy()
    opt = net.init_adam(model.online, lr=lr, beta2=cfg.adam_beta2)

    probe_rng = np.random.default_rng((cfg.seed, 0x534E4150))
    probe_batch = draw_training_items(problem, 1, probe_rng)
    probe_noise = probe_rng.standard_normal(probe_batch[0].shape)

    losses = np.zeros(steps)
    spread_probe = np.nan
    t_begin = time.perf_counter()
    for step in range(1, steps + 1):
        frac = (step - 1) / max(steps - 1, 1)
        if frac < flat_fraction or flat_fraction >= 1.0:
            opt.lr = lr
        else:
            opt.lr = lr + (final_lr - lr) * (frac - flat_fraction) / (1.0 - flat_fraction)
        batch = draw_training_items(problem, cfg.batch_size, rng)
        loss = train_step(model, target, cfg.ema_decay, batch, opt, rng)
        losses[step - 1] = loss
        if step_callback is not None:
            step_callback(step, model, loss, 1e3 * (time.perf_counter() - t_begin))
        if step == cfg.probe_step:
            spread_probe = self_consistency_spread(model, probe_batch, probe_noise)
    spread_final = self_consistency_spread(model, probe_batch, probe_noise)
    return ToyTrainResult(
        model=model,
        losses=losses,
        spread_probe=spread_probe,
        spread_final=spread_final,
        wall_s=time.perf_counter() - t_begin,
    )


def toy_sample(model: ConsistencyModel, problem: ToyProblem, n: int,
               rng: np.random.Generator, nfe: int) -> np.ndarray:
    """Generate ``n`` points from fresh far endpoints.

    Draws the far endpoints from ``rng`` and hands the same generator to
    :func:`sample_multistep` with the budget ``nfe``.  The far endpoint is
    passed as conditioning, matching training.
    """
    x1 = problem.draw_prior(n, rng)
    return sample_multistep(model, x1, x1, nfe, rng)
