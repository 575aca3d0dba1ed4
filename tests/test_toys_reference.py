"""The closed-form bridge marginal against a plain row-major reference.

The reference below is the straightforward formula: it recomputes the
posterior inside every call, holds it point-major ((n, k) weights and
(n, k, dim) means), reduces over trailing axes and uses SciPy's
``logsumexp``.  The library evaluates the same mixture component-major
from a posterior computed once per call; its outputs must match the
reference bit for bit, not merely to a tolerance.  The library's own
``logsumexp`` is held against SciPy's on its edge cases too.
"""

import numpy as np
import pytest
from scipy.special import logsumexp

from stereobridge import toys
from stereobridge.bridge import VARIANCE_FLOOR, heun_integrate
from stereobridge.config import default_config
from stereobridge.schedule import accumulated_variances, beta_at, bridge_coefficients
from stereobridge.toys import (
    GaussianMixture,
    ToyProblem,
    bridge_marginal_logpdf,
    bridge_marginal_score,
    oracle_ode_sample,
    posterior_mixing,
    sample_bridge_marginal,
)

CFG = default_config()
SCHED = CFG.schedule()
GRID = CFG.time_grid()

PROBLEMS = {
    "default": CFG.toy_problem(),
    "three-in-3d": ToyProblem(
        GaussianMixture(
            means=np.array([[-2.0, 0.0, 1.0], [2.0, 1.0, -1.0], [0.0, -2.0, 0.5]]),
            sigmas=np.array([0.4, 0.7, 0.3]),
            weights=np.array([0.5, 0.3, 0.2]),
        ),
        prior_sigma=0.9,
    ),
    "zero-width": ToyProblem(
        GaussianMixture(
            means=np.array([[-1.0, 0.5], [1.5, -0.5]]),
            sigmas=np.array([0.0, 0.6]),
            weights=np.array([0.3, 0.7]),
        ),
        prior_sigma=0.8,
    ),
}


# ---------------------------------------------------------------------------
# Row-major reference
# ---------------------------------------------------------------------------

def ref_state_mixture(t, x1, problem, sched):
    a, b, cap_sigma2 = bridge_coefficients(sched, float(t))
    post = posterior_mixing(problem, x1)
    log_w, post_means, post_vars = post.log_w.T, post.means.transpose(2, 0, 1), post.variances
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    means = a * post_means + b * x1[:, None, :]
    variances = np.maximum(a * a * post_vars + cap_sigma2, VARIANCE_FLOOR)
    return log_w, means, variances


def ref_component_logpdfs(x, t, x1, problem, sched):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    log_w, means, variances = ref_state_mixture(t, x1, problem, sched)
    diff = x[:, None, :] - means
    ssq = np.sum(diff * diff, axis=-1)
    log_comp = (
        log_w
        - 0.5 * problem.dim * np.log(2.0 * np.pi * variances)[None, :]
        - 0.5 * ssq / variances[None, :]
    )
    return log_comp, diff, variances


def ref_logpdf(x, t, x1, problem, sched):
    log_comp, _, _ = ref_component_logpdfs(x, t, x1, problem, sched)
    return logsumexp(log_comp, axis=1)


def ref_score(x, t, x1, problem, sched):
    log_comp, diff, variances = ref_component_logpdfs(x, t, x1, problem, sched)
    log_resp = log_comp - logsumexp(log_comp, axis=1, keepdims=True)
    resp = np.exp(log_resp)
    return -np.sum(resp[:, :, None] * diff / variances[None, :, None], axis=1)


def ref_sample(t, x1, problem, sched, rng):
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    log_w, means, variances = ref_state_mixture(t, x1, problem, sched)
    cum = np.cumsum(np.exp(log_w), axis=1)
    u = rng.random((x1.shape[0], 1))
    comp = np.minimum((u > cum).sum(axis=1), problem.mixture.n_components - 1)
    rows = np.arange(x1.shape[0])
    centers = means[rows, comp]
    scales = np.sqrt(variances[comp])
    return centers + scales[:, None] * rng.standard_normal(x1.shape)


def ref_oracle(problem, x1, sched, rng, t_start, t_end, steps):
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64))
    start = ref_sample(t_start, x1, problem, sched, rng)

    def drift(x, t):
        beta = float(beta_at(sched, float(t)))
        _, sigma_bar2 = accumulated_variances(sched, float(t))
        sigma_bar2 = max(float(sigma_bar2), VARIANCE_FLOOR)
        score = ref_score(x, t, x1, problem, sched)
        return beta * (x1 - x) / sigma_bar2 - 0.5 * beta * score

    return heun_integrate(drift, start, float(t_start), float(t_end), int(steps))


# ---------------------------------------------------------------------------
# Bitwise agreement
# ---------------------------------------------------------------------------

def endpoints(problem, n=512):
    rng = np.random.default_rng(31)
    x1 = problem.draw_prior(n, rng)
    return x1, x1 + rng.normal(scale=1.5, size=x1.shape)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_oracle_is_bitwise_the_reference(name):
    problem = PROBLEMS[name]
    x1, _ = endpoints(problem)
    kw = dict(t_start=GRID.t_max, t_end=GRID.t_min, steps=32)
    ours = oracle_ode_sample(problem, x1, SCHED, np.random.default_rng(5), **kw)
    ref = ref_oracle(problem, x1, SCHED, np.random.default_rng(5), **kw)
    assert np.array_equal(ours, ref)


@pytest.mark.parametrize("name", list(PROBLEMS))
@pytest.mark.parametrize("t", [0.02, 0.5, 0.97])
def test_marginal_functions_are_bitwise_the_reference(name, t):
    problem = PROBLEMS[name]
    x1, x = endpoints(problem)
    post = posterior_mixing(problem, x1)
    assert np.array_equal(bridge_marginal_score(x, t, post, SCHED),
                          ref_score(x, t, x1, problem, SCHED))
    assert np.array_equal(bridge_marginal_logpdf(x, t, post, SCHED),
                          ref_logpdf(x, t, x1, problem, SCHED))
    assert np.array_equal(
        sample_bridge_marginal(t, post, SCHED, np.random.default_rng(8)),
        ref_sample(t, x1, problem, SCHED, np.random.default_rng(8)))


@pytest.mark.parametrize("steps", [8, 64])
def test_oracle_computes_the_posterior_once_per_call(steps, monkeypatch):
    calls = []

    def counting(problem, x1):
        calls.append(1)
        return posterior_mixing(problem, x1)

    monkeypatch.setattr(toys, "posterior_mixing", counting)
    problem = PROBLEMS["default"]
    x1, _ = endpoints(problem, n=64)
    oracle_ode_sample(problem, x1, SCHED, np.random.default_rng(0),
                      t_start=GRID.t_max, t_end=GRID.t_min, steps=steps)
    # One for the start draw and the flow together, however many steps.
    assert len(calls) == 1


@pytest.mark.parametrize("steps", [8, 64])
def test_oracle_runs_the_public_marginal_functions(steps, monkeypatch):
    calls = {"draw": 0, "score": 0}

    def counting_draw(t, post, sched, rng):
        calls["draw"] += 1
        return sample_bridge_marginal(t, post, sched, rng)

    def counting_score(x, t, post, sched):
        calls["score"] += 1
        return bridge_marginal_score(x, t, post, sched)

    monkeypatch.setattr(toys, "sample_bridge_marginal", counting_draw)
    monkeypatch.setattr(toys, "bridge_marginal_score", counting_score)
    problem = PROBLEMS["default"]
    x1, _ = endpoints(problem, n=64)
    oracle_ode_sample(problem, x1, SCHED, np.random.default_rng(0),
                      t_start=GRID.t_max, t_end=GRID.t_min, steps=steps)
    # One start draw, then two score evaluations per Heun step.
    assert calls == {"draw": 1, "score": 2 * steps}


# ---------------------------------------------------------------------------
# logsumexp against SciPy's
# ---------------------------------------------------------------------------

def edge_columns(k):
    """(k, 265) log weights: 256 ordinary columns, then one edge case each."""
    rng = np.random.default_rng(k)
    finite = rng.normal(scale=3.0, size=(k, 256))
    tied = finite[:, 0].copy()
    tied[[0, -1]] = tied.max() + 1.0      # the maximum held by two entries
    cols = [np.full(k, 0.7), tied]
    for first in (-np.inf, np.inf, np.nan):
        col = finite[:, 1].copy()
        col[0] = first
        cols.append(col)
    cols.append(np.full(k, -np.inf))
    cols.append(np.where(np.arange(k) % 2 == 0, np.inf, -np.inf))
    cols.append(np.array([800.0, -800.0] * k)[:k])   # exp overflows and underflows
    cols.append(30.0 * finite[:, 2])
    return np.concatenate([finite, np.stack(cols, axis=1)], axis=1)


@pytest.mark.parametrize("k", [1, 2, 5])
@pytest.mark.parametrize("keepdims", [True, False])
def test_logsumexp_is_bitwise_scipy_on_edge_cases(k, keepdims):
    a = edge_columns(k)
    ours = toys._logsumexp(a, keepdims=keepdims)
    ref = logsumexp(a, axis=0, keepdims=keepdims)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(np.signbit(ours), np.signbit(ref))


def test_toys_does_not_bind_scipy_logsumexp():
    # SciPy's array-API version takes several times the library's per call.
    assert all(value is not logsumexp for value in vars(toys).values())
