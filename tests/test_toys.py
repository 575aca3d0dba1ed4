import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from stereobridge import toys
from stereobridge.bridge import Endpoints, analytic_posterior_score
from stereobridge.config import default_config
from stereobridge.consistency import ConsistencyModel
from stereobridge.schedule import NoiseSchedule, bridge_coefficients, make_grid
from stereobridge.toys import (
    _rows,
    _within_sum,
    GaussianMixture,
    ToyProblem,
    bridge_marginal_logpdf,
    bridge_marginal_score,
    draw_training_items,
    energy_distance,
    one_component_flow,
    oracle_ode_sample,
    posterior_mixing,
    run_toy_training,
    sample_bridge_marginal,
    toy_sample,
)

SCHED = NoiseSchedule()
PROBLEM = default_config().toy_problem()

# Regression value for the reference sampler on the default problem
# (4096 draws against 4096 held-out points, generator seed 123).  A change
# to the energy distance's summation order moves it by about 1e-12.
ORACLE_ED = 0.035049365532151176


def tiny_run(step_callback=None, **kw):
    args = dict(steps=30, probe_step=5, hidden=16, depth=2, time_embed_dim=8)
    args.update(kw)
    return run_toy_training(replace(default_config(), **args),
                            step_callback=step_callback)


# ---------------------------------------------------------------------------
# Mixture and problem construction
# ---------------------------------------------------------------------------

def test_mixture_rejects_flat_means():
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros(3), np.ones(3), np.full(3, 1 / 3))


def test_mixture_rejects_mismatched_components():
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros((2, 2)), np.ones(3), np.array([0.5, 0.5]))


def test_mixture_rejects_negative_sigma():
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros((1, 2)), np.array([-0.1]), np.array([1.0]))


def test_mixture_rejects_unnormalized_weights():
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros((2, 2)), np.ones(2), np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        GaussianMixture(np.zeros((2, 2)), np.ones(2), np.array([np.nan, np.nan]))


@pytest.mark.parametrize("field", ["means", "sigmas"])
def test_mixture_rejects_a_non_finite_parameter(field):
    parts = {"means": np.zeros((2, 2)), "sigmas": np.ones(2), "weights": np.full(2, 0.5)}
    parts[field].flat[1] = np.nan
    with pytest.raises(ValueError, match="mixture parameters must be finite"):
        GaussianMixture(**parts)


def test_mixture_sample_moments():
    mix = GaussianMixture(
        means=np.array([[-1.0, 2.0], [3.0, 0.0]]),
        sigmas=np.array([0.5, 1.5]),
        weights=np.array([0.25, 0.75]),
    )
    n = 200_000
    draws = mix.sample(n, np.random.default_rng(11))
    mean = mix.weights @ mix.means
    second = mix.weights @ (mix.means**2 + mix.sigmas[:, None] ** 2)
    var = second - mean**2
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / n))
    sample_var = draws.var(axis=0, ddof=1)
    assert np.all(np.abs(sample_var - var) <= 5.0 * var * np.sqrt(2.0 / n))


def test_default_mixture_is_balanced():
    mix = PROBLEM.mixture
    assert mix.n_components == 2
    assert mix.dim == 2
    assert mix.weights == pytest.approx([0.5, 0.5])
    assert np.allclose(mix.means[0], -mix.means[1])


def test_problem_rejects_negative_prior_sigma():
    with pytest.raises(ValueError):
        ToyProblem(mixture=PROBLEM.mixture, prior_sigma=-1.0)


def test_zero_prior_sigma_pins_endpoints():
    prob = ToyProblem(mixture=PROBLEM.mixture, prior_sigma=0.0)
    x0, x1 = prob.draw_pairs(64, np.random.default_rng(0))
    assert np.array_equal(x0, x1)


def test_endpoints_are_coupled():
    # x1 scatters around its own x0, not around an independent draw.
    prob = PROBLEM
    x0, x1 = prob.draw_pairs(50_000, np.random.default_rng(3))
    gaps = np.linalg.norm(x1 - x0, axis=1)
    # ||x1 - x0|| / prior_sigma is chi(2); mean sqrt(pi/2) ~ 1.2533.
    assert gaps.mean() / prob.prior_sigma == pytest.approx(np.sqrt(np.pi / 2), abs=0.01)


def test_draw_training_items_conditioning():
    # The batch is draw_pairs' arrays plus a copy of x1, from the same draws.
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    x0, x1, cond = draw_training_items(PROBLEM, 8, rng)
    want_x0, want_x1 = PROBLEM.draw_pairs(8, twin)
    assert x0.shape == x1.shape == cond.shape == (8, 2)
    assert np.array_equal(x0, want_x0) and np.array_equal(x1, want_x1)
    assert np.array_equal(cond, x1)
    assert not np.shares_memory(cond, x1)
    assert rng.standard_normal() == twin.standard_normal()


# ---------------------------------------------------------------------------
# Posterior mixing
# ---------------------------------------------------------------------------

def test_posterior_mixing_single_component_hand_values():
    # One component: conjugate Gaussian update, checked against pencil work.
    mix = GaussianMixture(np.array([[1.0, -1.0]]), np.array([0.5]), np.array([1.0]))
    prob = ToyProblem(mixture=mix, prior_sigma=1.0)
    post = posterior_mixing(prob, np.array([[2.0, 0.0]]))
    assert post.log_w[0, 0] == pytest.approx(0.0, abs=1e-12)
    # mean = (p^2 m + s^2 x1) / (s^2 + p^2) = (m + 0.25 x1) / 1.25
    assert post.means[0, :, 0] == pytest.approx([1.2, -0.8])
    assert post.variances[0] == pytest.approx(0.25 / 1.25)


def test_posterior_mixing_matches_numerical_bayes():
    """Mixture posterior against brute-force Bayes on a 1-D grid."""
    mix = GaussianMixture(
        means=np.array([[-1.5], [2.0]]),
        sigmas=np.array([0.4, 0.7]),
        weights=np.array([0.3, 0.7]),
    )
    prob = ToyProblem(mixture=mix, prior_sigma=0.9)
    grid = np.linspace(-8.0, 8.0, 4001)
    dx = grid[1] - grid[0]

    def mix_pdf(x):
        out = np.zeros_like(x)
        for m, s, w in zip(mix.means[:, 0], mix.sigmas, mix.weights):
            out += w * np.exp(-0.5 * (x - m) ** 2 / s**2) / np.sqrt(2 * np.pi * s**2)
        return out

    for x1 in (-2.0, 0.3, 1.1):
        like = np.exp(-0.5 * (x1 - grid) ** 2 / prob.prior_sigma**2)
        numeric = mix_pdf(grid) * like
        numeric /= numeric.sum() * dx

        post = posterior_mixing(prob, np.array([[x1]]))
        closed = np.zeros_like(grid)
        for lw, m, v in zip(post.log_w[:, 0], post.means[:, 0, 0], post.variances):
            closed += np.exp(lw) * np.exp(-0.5 * (grid - m) ** 2 / v) / np.sqrt(2 * np.pi * v)
        assert np.max(np.abs(closed - numeric)) < 1e-6


def test_posterior_mixing_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        posterior_mixing(PROBLEM, np.zeros((3, 5)))


def test_marginal_density_rejects_points_of_another_dimension():
    post = posterior_mixing(PROBLEM, np.zeros((3, 2)))
    with pytest.raises(ValueError, match="points have dim 3, mixture has 2"):
        bridge_marginal_logpdf(np.zeros((3, 3)), 0.5, post, SCHED)


# ---------------------------------------------------------------------------
# Bridge marginal density and score
# ---------------------------------------------------------------------------

def test_posterior_log_density_is_the_marginal_at_time_zero():
    # At t = 0 the bridge state is the clean point, so the marginal is the
    # posterior mixture p(x0 | x1), written out here from its fields.
    x0, x1 = PROBLEM.draw_pairs(256, np.random.default_rng(17))
    post = posterior_mixing(PROBLEM, x1)
    var = post.variances[:, None]
    ssq = np.sum((x0.T[None, :, :] - post.means) ** 2, axis=1)
    want = logsumexp(post.log_w - 0.5 * PROBLEM.dim * np.log(2.0 * np.pi * var)
                     - 0.5 * ssq / var, axis=0)
    got = bridge_marginal_logpdf(x0, 0.0, post, SCHED)
    assert np.allclose(got, want, rtol=0.0, atol=1e-12)


def test_marginal_logpdf_normalizes():
    mix = GaussianMixture(
        means=np.array([[-1.0], [1.5]]),
        sigmas=np.array([0.5, 0.3]),
        weights=np.array([0.6, 0.4]),
    )
    prob = ToyProblem(mixture=mix, prior_sigma=0.8)
    post = posterior_mixing(prob, np.array([[0.5]]))
    grid = np.linspace(-20.0, 20.0, 20001)[:, None]
    for t in (0.05, 0.5, 0.95):
        pdf = np.exp(bridge_marginal_logpdf(grid, t, post, SCHED))
        total = np.trapezoid(pdf, grid[:, 0])
        assert total == pytest.approx(1.0, abs=1e-8)


def test_marginal_score_matches_finite_differences():
    post = posterior_mixing(PROBLEM, np.array([[0.7, -1.2]]))
    rng = np.random.default_rng(2)
    pts = rng.normal(scale=2.0, size=(12, 2))
    h = 1e-6
    for t in (0.2, 0.85):
        score = bridge_marginal_score(pts, t, post, SCHED)
        for axis in range(2):
            e = np.zeros(2)
            e[axis] = h
            fd = (
                bridge_marginal_logpdf(pts + e, t, post, SCHED)
                - bridge_marginal_logpdf(pts - e, t, post, SCHED)
            ) / (2 * h)
            assert np.max(np.abs(score[:, axis] - fd)) < 1e-5


def test_marginal_score_reduces_to_pinned_bridge():
    # A zero-width component with zero prior noise pins both endpoints,
    # which is exactly the two-endpoint posterior handled elsewhere.
    m = np.array([0.8, -0.4])
    mix = GaussianMixture(m[None, :], np.array([0.0]), np.array([1.0]))
    prob = ToyProblem(mixture=mix, prior_sigma=0.0)
    x1 = np.array([1.5, 2.0])
    pts = np.random.default_rng(4).normal(size=(6, 2))
    for t in (0.3, 0.9):
        ours = bridge_marginal_score(pts, t, posterior_mixing(prob, x1[None, :]), SCHED)
        ref = np.stack([analytic_posterior_score(p, Endpoints(m, x1), t, SCHED) for p in pts])
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-9)


def test_sample_bridge_marginal_moments():
    mix = GaussianMixture(np.array([[1.0, -2.0]]), np.array([0.6]), np.array([1.0]))
    prob = ToyProblem(mixture=mix, prior_sigma=1.1)
    x1 = np.array([[2.0, 0.0]])
    t = 0.55
    n = 100_000
    draws = sample_bridge_marginal(t, posterior_mixing(prob, np.repeat(x1, n, axis=0)),
                                   SCHED, np.random.default_rng(9))
    a, b, cap = bridge_coefficients(SCHED, t)
    post = posterior_mixing(prob, x1)
    mean = a * post.means[0, :, 0] + b * x1[0]
    var = a * a * post.variances[0] + cap
    assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4.0 * np.sqrt(var / n))
    assert np.all(np.abs(draws.var(axis=0, ddof=1) - var) <= 4.0 * var * np.sqrt(2.0 / n))


# ---------------------------------------------------------------------------
# Reference ODE sampler
# ---------------------------------------------------------------------------

def test_marginal_flow_transports_moments():
    """Integrating the velocity field reproduces the closed-form marginal."""
    mix = GaussianMixture(np.array([[0.5, -0.3]]), np.array([0.8]), np.array([1.0]))
    prob = ToyProblem(mixture=mix, prior_sigma=1.2)
    x1 = np.array([[1.0, 0.4]])
    t0, t1 = 0.9, 0.3
    n = 40_000
    end = oracle_ode_sample(prob, np.repeat(x1, n, axis=0), SCHED,
                            np.random.default_rng(14), t_start=t0, t_end=t1, steps=64)

    a, b, cap = bridge_coefficients(SCHED, t1)
    post = posterior_mixing(prob, x1)
    mean = a * post.means[0, :, 0] + b * x1[0]
    var = a * a * post.variances[0] + cap
    assert np.all(np.abs(end.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / n))
    assert np.all(np.abs(end.var(axis=0, ddof=1) - var) <= 5.0 * var * np.sqrt(2.0 / n))


def test_oracle_converges_to_the_exact_one_component_flow():
    """On one component the marginal flow from (x_t, t) to s is the affine
    ``one_component_flow``.  From t = 0.5 the oracle's error at t_min read
    9.1e-3, 2.3e-3, 6.0e-4, 1.5e-4 and 3.8e-5 at 16 to 256 steps (orders
    1.95-1.99).  From t_max it converges only at order ≈ 1, with
    the default 256 steps 0.32 off: not asserted here, as a converged
    oracle will change it.
    """
    mix = GaussianMixture(np.array([[2.0, 0.0]]), np.array([0.5]), np.array([1.0]))
    prob = ToyProblem(mixture=mix, prior_sigma=1.0)
    x1 = prob.draw_prior(2048, np.random.default_rng(41))
    post = posterior_mixing(prob, x1)
    t0, t_end = 0.5, make_grid(12).t_min
    # The oracle's own start: its first draw from a generator seeded alike.
    start = sample_bridge_marginal(t0, post, SCHED, np.random.default_rng(7))
    assert np.max(np.abs(one_component_flow(start, t0, t0, post, SCHED) - start)) <= 1e-14
    exact = one_component_flow(start, t0, t_end, post, SCHED)
    errs = [np.max(np.abs(oracle_ode_sample(prob, x1, SCHED, np.random.default_rng(7),
                                            t0, t_end, steps) - exact))
            for steps in (32, 64, 128)]
    assert min(np.log2(np.divide(errs[:-1], errs[1:]))) >= 1.9


def test_one_component_flow_refuses_a_mixture():
    x1 = PROBLEM.draw_prior(8, np.random.default_rng(3))
    post = posterior_mixing(PROBLEM, x1)
    assert len(post.variances) == 2
    with pytest.raises(ValueError, match="one component, the posterior has 2"):
        one_component_flow(x1, 0.5, 0.1, post, SCHED)


def test_oracle_matches_data_distribution():
    prob = PROBLEM
    grid = make_grid(12)
    r = np.random.default_rng(123)
    held = prob.mixture.sample(4096, r)
    oracle = oracle_ode_sample(prob, prob.draw_prior(4096, r), SCHED, r,
                               t_start=grid.t_max, t_end=grid.t_min)
    ed = energy_distance(oracle, held)
    assert ed == pytest.approx(ORACLE_ED, rel=1e-13)
    assert ed < 0.06
    # Both modes get their share.
    assert (oracle[:, 0] > 0).mean() == pytest.approx(0.5, abs=0.03)


# ---------------------------------------------------------------------------
# Energy distance
# ---------------------------------------------------------------------------

def test_energy_distance_identical_sets_is_zero():
    x = np.random.default_rng(1).normal(size=(50, 2))
    assert energy_distance(x, x.copy()) == 0.0


def test_energy_distance_point_masses():
    x = np.zeros((2, 2))
    y = np.tile([3.0, 4.0], (2, 1))
    # Within-set terms vanish, cross term is the 3-4-5 distance.
    assert energy_distance(x, y) == pytest.approx(np.sqrt(10.0))


def test_energy_distance_symmetry():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 3))
    y = rng.normal(loc=0.3, size=(60, 3))
    assert energy_distance(x, y) == pytest.approx(energy_distance(y, x))


def test_energy_distance_grows_with_separation():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(500, 2))
    prev = 0.0
    for shift in (0.5, 1.0, 2.0):
        cur = energy_distance(x, x + np.array([shift, 0.0]))
        assert cur > prev
        prev = cur


def test_energy_distance_input_validation():
    with pytest.raises(ValueError):
        energy_distance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        energy_distance(np.zeros((1, 2)), np.zeros((5, 2)))


def full_matrix_energy_distance(x, y):
    """The estimator with every distance matrix built whole."""
    n, m = len(x), len(y)
    cross = float(cdist(x, y).sum()) / (n * m)
    within_x = float(cdist(x, x).sum()) / (n * (n - 1))
    within_y = float(cdist(y, y).sum()) / (m * (m - 1))
    return float(np.sqrt(max(2.0 * cross - within_x - within_y, 0.0)))


# Set sizes around 256 points, against which a block is 256 rows.
R = 256


@pytest.mark.parametrize("n, m, dim", [
    (2, 2, 2), (R - 1, R - 1, 2), (R, R, 2), (R + 1, R + 1, 2),
    (1000, 4096, 2), (R + 1, 2 * R + 3, 1), (3 * R, R - 1, 3),
])
def test_blocked_energy_distance_matches_full_matrices(n, m, dim):
    rng = np.random.default_rng(n + m + dim)
    x = rng.normal(size=(n, dim))
    y = rng.normal(loc=1.0, size=(m, dim))
    blocked = energy_distance(x, y)
    assert blocked > 0.0
    assert blocked == pytest.approx(full_matrix_energy_distance(x, y), rel=1e-12, abs=0)


def test_energy_distance_identical_sets_above_the_block_size_is_zero():
    x = np.random.default_rng(2).normal(size=(4096, 2))
    assert energy_distance(x, x.copy()) == 0.0


@pytest.mark.parametrize("m", [4096, 16384])
def test_energy_distance_memory_is_bounded_by_the_row_block(m):
    # A full 4096 x 4096 distance matrix alone is 128 MiB.  The two float64
    # block buffers may be alive, plus 1 MiB for everything else, the
    # memo's copy of the reference set's bytes among it.
    scratch = 2 * 8 * _rows(m) * m
    toys._reference_within_sum.cache_clear()
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4096, 2))
    y = rng.normal(size=(m, 2))
    tracemalloc.start()
    try:
        energy_distance(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= scratch + 2**20


def block_formula_energy_distance(x, y):
    """The blocked estimator written out: blocks of ``_rows(m)`` rows
    against the m points of the other set, each block's ``cdist`` summed
    whole and the block sums added in row order."""
    def cross_sum(a, b):
        r = _rows(len(b))
        return sum(float(cdist(a[i:i + r], b).sum()) for i in range(0, len(a), r))

    def within_sum(a):
        r = _rows(len(a))
        total = 0.0
        for i in range(0, len(a), r):
            total += (float(cdist(a[i:i + r], a[i:i + r]).sum())
                      + 2.0 * float(cdist(a[i:i + r], a[i + r:]).sum()))
        return total

    n, m = len(x), len(y)
    total = 2.0 * (cross_sum(x, y) / (n * m)) - within_sum(x) / (n * (n - 1)) \
        - within_sum(y) / (m * (m - 1))
    return float(np.sqrt(max(total, 0.0)))


@pytest.mark.parametrize("m, dim", [(2, 2), (R - 1, 1), (R, 2), (R + 1, 3), (2 * R + 3, 2),
                                    (4096, 2), (4096, 6), (8193, 2), (12345, 3),
                                    (2**16 + 3, 2)])
def test_a_full_row_block_sums_as_np_sum_of_its_cdist_block(m, dim):
    # A block of _rows(m) rows (one row past m = 2^16) is one np.sum of its
    # whole distance block, and the distances are cdist's bit for bit.
    rng = np.random.default_rng(m + dim)
    x = rng.normal(size=(_rows(m), dim))
    y = rng.normal(loc=0.5, size=(m, dim))
    assert toys._cross_sum(x, y) == float(cdist(x, y).sum())


# Against 255, 256, 257 and 515 points a block is 257, 256, 255 and 127
# rows, so these sizes end a set short of, on and past a block boundary.
# Against 4097 and 4369 points a block is 15 rows and against 4370 it is
# 14, so 29, 30 and 29 rows end one row short of, on and one row past a
# second block on either side of a change in the block height.
EDGE_ROWS = (R - 1, R, R + 1, 2 * R + 3)


@pytest.mark.parametrize("n, m", [(n, m) for n in EDGE_ROWS for m in EDGE_ROWS]
                         + [(4096, 4096), (29, 4097), (30, 4369), (29, 4370)])
def test_energy_distance_is_bitwise_the_block_formula(n, m):
    toys._reference_within_sum.cache_clear()
    rng = np.random.default_rng(n * m)
    x = rng.normal(size=(n, 2))
    y = rng.normal(loc=0.5, size=(m, 2))
    assert energy_distance(x, y) == block_formula_energy_distance(x, y)


def counting_within_sums(monkeypatch):
    """Count ``_within_sum`` calls, starting from an empty memo."""
    calls = []
    toys._reference_within_sum.cache_clear()

    def counting(a):
        calls.append(a.shape[0])
        return _within_sum(a)

    monkeypatch.setattr(toys, "_within_sum", counting)
    return calls


def test_energy_distance_reuses_the_reference_within_sum_bitwise(monkeypatch):
    rng = np.random.default_rng(4)
    y = rng.normal(size=(R + 7, 2))
    x1, x2 = rng.normal(size=(R - 3, 2)), rng.normal(loc=0.5, size=(R + 1, 2))
    calls = counting_within_sums(monkeypatch)
    first = energy_distance(x1, y)
    second = energy_distance(x2, y)
    # The reference set's sum runs once; each candidate's runs every call.
    assert calls == [R - 3, R + 7, R + 1]
    assert first == block_formula_energy_distance(x1, y)
    assert second == block_formula_energy_distance(x2, y)


def test_energy_distance_sees_a_reference_set_changed_in_place(monkeypatch):
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(64, 2)), rng.normal(size=(80, 2))
    calls = counting_within_sums(monkeypatch)
    before = energy_distance(x, y)
    y[3, 1] += 2.0
    after = energy_distance(x, y)
    assert calls == [64, 80, 64, 80]
    assert after != before
    assert after == block_formula_energy_distance(x, y)


def test_energy_distance_memo_holds_one_reference_set():
    toys._reference_within_sum.cache_clear()
    rng = np.random.default_rng(6)
    x = rng.normal(size=(32, 2))
    for m in (16, 40, 40, 24):
        energy_distance(x, rng.normal(size=(m, 2)))
        assert toys._reference_within_sum.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# Training entry point
# ---------------------------------------------------------------------------

def test_toy_training_smoke():
    seen = []
    res = tiny_run(step_callback=lambda s, m, l, w: seen.append((s, l, w)))
    assert res.losses.shape == (30,)
    assert np.all(np.isfinite(res.losses))
    assert np.all(res.losses > 0)
    assert np.all(np.diff([w for _, _, w in seen]) >= 0)
    assert np.isfinite(res.spread_probe) and res.spread_probe > 0
    assert np.isfinite(res.spread_final) and res.spread_final > 0
    assert isinstance(res.model, ConsistencyModel)
    assert [s for s, _, _ in seen] == list(range(1, 31))
    assert [l for _, l, _ in seen] == pytest.approx(list(res.losses))


def test_toy_training_is_deterministic():
    r1 = tiny_run(steps=25, probe_step=3)
    r2 = tiny_run(steps=25, probe_step=3)
    assert np.array_equal(r1.losses, r2.losses)
    assert r1.spread_probe == r2.spread_probe
    assert r1.spread_final == r2.spread_final
    for w1, w2 in zip(r1.model.online.weights, r2.model.online.weights):
        assert np.array_equal(w1, w2)


def test_toy_training_seed_changes_run():
    r1 = tiny_run(steps=10, probe_step=2, seed=1)
    r2 = tiny_run(steps=10, probe_step=2, seed=2)
    assert not np.array_equal(r1.losses, r2.losses)


def test_toy_training_validation():
    cfg = default_config()
    for bad in (dict(steps=0), dict(steps=10, batch_size=0),
                dict(steps=10, probe_step=0), dict(steps=10, probe_step=11),
                dict(steps=10, flat_fraction=0.0)):
        with pytest.raises(ValueError):
            run_toy_training(replace(cfg, **bad))


def test_flat_schedule_allows_full_fraction():
    res = tiny_run(steps=6, probe_step=2, flat_fraction=1.0)
    assert np.all(np.isfinite(res.losses))


# ---------------------------------------------------------------------------
# Sampling wrapper
# ---------------------------------------------------------------------------

def test_toy_sample_shapes_and_determinism():
    res = tiny_run()
    prob = PROBLEM
    s1 = toy_sample(res.model, prob, 32, np.random.default_rng(7), nfe=1)
    s1_again = toy_sample(res.model, prob, 32, np.random.default_rng(7), nfe=1)
    s4 = toy_sample(res.model, prob, 32, np.random.default_rng(7), nfe=4)
    assert s1.shape == (32, 2)
    assert np.array_equal(s1, s1_again)
    assert s4.shape == (32, 2)
    assert not np.array_equal(s1, s4)


def test_toy_sample_counts_evaluations():
    res = tiny_run()
    prob = PROBLEM
    before = res.model.eval_count
    toy_sample(res.model, prob, 8, np.random.default_rng(0), nfe=1)
    assert res.model.eval_count == before + 1
    toy_sample(res.model, prob, 8, np.random.default_rng(0), nfe=4)
    assert res.model.eval_count == before + 5
