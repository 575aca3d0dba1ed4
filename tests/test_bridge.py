import numpy as np
import pytest

from stereobridge.bridge import (
    BridgeSample,
    DivergenceError,
    Endpoints,
    NearEndpointError,
    analytic_posterior_score,
    bridge_state,
    heun_integrate,
    integrate_pf_ode,
    pf_ode_drift,
    posterior_moments,
    sample_posterior,
)
from stereobridge.schedule import (
    NoiseSchedule,
    accumulated_variances,
    beta_at,
    bridge_coefficients,
    make_grid,
)

CONST = NoiseSchedule(beta0=1.0, beta1=1.0)
DEFAULT = NoiseSchedule()


def test_endpoint_shape_mismatch():
    with pytest.raises(ValueError):
        Endpoints(np.zeros(3), np.zeros(4))


def test_posterior_mean_at_midpoint():
    ep = Endpoints(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    s = sample_posterior(ep, 0.5, CONST, np.zeros(2))
    assert s.x == pytest.approx([0.5, 0.5])


def test_posterior_pins_to_data_near_zero():
    ep = Endpoints(np.array([2.0, -1.0]), np.array([-3.0, 5.0]))
    t = 1e-6
    z = np.array([0.7, -0.4])
    s = sample_posterior(ep, t, CONST, z)
    _, b, v = bridge_coefficients(CONST, t)
    bound = abs(b) * np.max(np.abs(ep.x1 - ep.x0)) + np.sqrt(v) * np.max(np.abs(z))
    assert np.max(np.abs(s.x - ep.x0)) <= bound
    assert bound < 1e-3


def test_posterior_monte_carlo_moments():
    rng = np.random.default_rng(7)
    dim = 4
    ep = Endpoints(rng.normal(size=dim), rng.normal(size=dim))
    n = 100_000
    for t in (0.2, 0.5, 0.9):
        z = rng.standard_normal((n, dim))
        a, b, v = bridge_coefficients(DEFAULT, t)
        draws = a * ep.x0 + b * ep.x1 + np.sqrt(v) * z
        mu, _ = posterior_moments(ep, t, DEFAULT)
        se_mean = np.sqrt(v / n)
        assert np.all(np.abs(draws.mean(axis=0) - mu) <= 4.0 * se_mean)
        var = draws.var(axis=0, ddof=1)
        se_var = v * np.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(var - v) <= 4.0 * se_var)


def test_posterior_noise_shape_error():
    ep = Endpoints(np.zeros(3), np.ones(3))
    with pytest.raises(ValueError):
        sample_posterior(ep, 0.5, CONST, np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_endpoints_reject_a_non_finite_end(bad):
    with pytest.raises(ValueError, match="endpoints must be finite"):
        Endpoints(np.array([0.0, bad]), np.zeros(2))
    with pytest.raises(ValueError, match="endpoints must be finite"):
        Endpoints(np.zeros(2), np.array([bad, 0.0]))


def test_heun_rejects_a_stepless_integration():
    with pytest.raises(ValueError, match="steps must be >= 1, got 0"):
        heun_integrate(lambda x, t: x, np.array([1.0]), 0.1, 0.9, 0)


def test_heun_over_an_empty_interval_copies_its_start():
    def drift(x, t):
        raise AssertionError("an empty interval needs no drift")

    start = np.array([1.0, -2.0])
    x = heun_integrate(drift, start, 0.4, 0.4, 8)
    assert np.array_equal(x, start)
    assert x is not start


def test_analytic_score_zero_at_mode():
    ep = Endpoints(np.array([1.0, 2.0]), np.array([-1.0, 0.5]))
    mu, _ = posterior_moments(ep, 0.3, DEFAULT)
    score = analytic_posterior_score(mu, ep, 0.3, DEFAULT)
    assert score == pytest.approx([0.0, 0.0], abs=1e-12)


def test_analytic_score_hand_value():
    # constant rate, t = 0.5: mu = 0, cap_sigma2 = 0.25 -> -(1 - 0) / 0.25
    ep = Endpoints(np.array([0.0]), np.array([0.0]))
    score = analytic_posterior_score(np.array([1.0]), ep, 0.5, CONST)
    assert score == pytest.approx([-4.0])


def test_analytic_score_matches_finite_differences():
    rng = np.random.default_rng(11)
    dim = 5

    def log_density(x, mu, v):
        return -0.5 * np.sum((x - mu) ** 2) / v

    for _ in range(50):
        ep = Endpoints(rng.normal(size=dim), rng.normal(size=dim))
        t = rng.uniform(0.05, 0.95)
        x = rng.normal(size=dim)
        mu, v = posterior_moments(ep, t, DEFAULT)
        score = analytic_posterior_score(x, ep, t, DEFAULT)
        h = 1e-6
        fd = np.zeros(dim)
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            fd[k] = (log_density(x + e, mu, v) - log_density(x - e, mu, v)) / (2 * h)
        assert np.linalg.norm(fd - score) <= 1e-6 * max(np.linalg.norm(score), 1.0)


def test_score_near_endpoint_error():
    ep = Endpoints(np.zeros(2), np.ones(2))
    with pytest.raises(NearEndpointError):
        analytic_posterior_score(np.zeros(2), ep, 1e-13, DEFAULT)


def test_drift_zero_at_prior_with_zero_base():
    x1 = np.array([0.5, 0.5])
    d = pf_ode_drift(x1, x1, 0.3, CONST)
    assert d == pytest.approx([0.0, 0.0])


def test_drift_hand_value():
    # 0.5 * beta * (x1 - x) / cap_sigma2 = 0.5 * 1 * 2 / 0.25
    d = pf_ode_drift(np.array([0.0]), np.array([2.0]), 0.5, CONST)
    assert d == pytest.approx([4.0])


def test_drift_affine_in_state():
    rng = np.random.default_rng(5)
    x = rng.normal(size=3)
    delta = rng.normal(size=3)
    x1 = rng.normal(size=3)
    t = 0.37
    d0 = pf_ode_drift(x, x1, t, DEFAULT)
    d1 = pf_ode_drift(x + delta, x1, t, DEFAULT)
    _, _, v = bridge_coefficients(DEFAULT, t)
    assert d1 - d0 == pytest.approx(-0.5 * beta_at(DEFAULT, t) * delta / v)


def _linear_ode_exact(xs, x1, t0, t1, c=1.0):
    """Closed form for dx/dt = c/(2 t (1-t)) (x1 - x) under the unit rate."""
    ratio = (t1 * (1.0 - t0)) / (t0 * (1.0 - t1))
    return x1 + (xs - x1) * ratio ** (-c / 2.0)


def test_integrate_identity_when_no_interval():
    start = BridgeSample(np.array([1.0]), 0.5)
    out = integrate_pf_ode(start, 0.5, 16, np.array([0.0]), CONST)
    assert out is start


def test_integrate_matches_linear_ode_oracle():
    # Integrate top-down across a well-conditioned window; the exact solution
    # of the affine drift is known in closed form for the unit-rate schedule.
    t0, t1 = 0.9, 0.1
    xs = np.array([3.0])
    x1 = np.array([-1.0])
    start = BridgeSample(xs, t0)
    out = integrate_pf_ode(start, t1, 256, x1, CONST)
    exact = _linear_ode_exact(xs, x1, t0, t1)
    assert np.abs(out.x - exact) <= 1e-4 * np.abs(exact)


@pytest.mark.parametrize("sched, expected", [
    (DEFAULT, 77.92027531689247),
    (NoiseSchedule(beta0=2.0, beta1=2.0), 35.0),
], ids=["default-schedule", "constant-rate-2"])
def test_integrate_matches_closed_form_at_any_schedule(sched, expected):
    # The drift carries the rate once, so (x - x1) * sqrt(sigma2 / sigma_bar2)
    # is constant along the flow at any schedule.  A squared rate gives
    # 3.19e12 and 323 here.
    t0, t1 = 0.9, 0.1
    xs, x1 = np.array([3.0]), np.array([-1.0])
    (s0, sb0), (s1, sb1) = (accumulated_variances(sched, t) for t in (t0, t1))
    exact = x1 + (xs - x1) * np.sqrt(sb1 * s0 / (s1 * sb0))
    assert exact[0] == pytest.approx(expected, rel=1e-12)
    out = integrate_pf_ode(BridgeSample(xs, t0), t1, 4096, x1, sched).x
    assert np.abs(out - exact) <= 1e-6 * np.abs(exact)


def test_integrate_self_convergence_order():
    t0, t1 = 0.9, 0.1
    xs = np.array([3.0])
    x1 = np.array([-1.0])
    start = BridgeSample(xs, t0)
    ref = integrate_pf_ode(start, t1, 10_000, x1, CONST).x
    errs = []
    for steps in (32, 64, 128):
        out = integrate_pf_ode(start, t1, steps, x1, CONST).x
        errs.append(float(np.abs(out - ref)[0]))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.9


def test_integrate_deterministic():
    start = BridgeSample(np.array([1.0, -2.0]), 0.8)
    x1 = np.array([0.3, 0.4])
    a = integrate_pf_ode(start, 0.2, 64, x1, DEFAULT).x
    b = integrate_pf_ode(start, 0.2, 64, x1, DEFAULT).x
    assert np.array_equal(a, b)


def test_integrate_divergence_reports_step():
    def exploding(x, t):
        return x * 1e200

    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
        heun_integrate(exploding, np.array([1.0]), 0.1, 0.9, 8)
    assert exc.value.step >= 0


def pair_state(ep, grid, n, z):
    """Bridge state at grid node ``n``: one half of a shared-noise pair."""
    a, b, v = bridge_coefficients(CONST, grid.nodes[n])
    return bridge_state(a, b, np.sqrt(v), ep.x0, ep.x1, z)


def test_coupled_pair_on_mean_path():
    grid = make_grid(8, 0.05, 0.95)
    ep = Endpoints(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    lo, hi = (pair_state(ep, grid, n, np.zeros(2)) for n in (3, 4))
    mu_lo, _ = posterior_moments(ep, grid.nodes[3], CONST)
    mu_hi, _ = posterior_moments(ep, grid.nodes[4], CONST)
    assert lo == pytest.approx(mu_lo)
    assert hi == pytest.approx(mu_hi)


def test_coupled_pair_pins_to_data():
    grid = make_grid(100, 1e-4, 0.999)
    ep = Endpoints(np.array([2.0]), np.array([-2.0]))
    lo = pair_state(ep, grid, 0, np.array([0.5]))
    assert np.abs(lo - ep.x0) < 2e-2


def test_coupled_pair_difference_moments():
    rng = np.random.default_rng(13)
    grid = make_grid(10, 0.05, 0.95)
    ep = Endpoints(np.array([1.5]), np.array([-0.5]))
    n_draws = 100_000
    idx = 4
    z = rng.standard_normal((n_draws, 1))
    t_lo, t_hi = grid.nodes[idx], grid.nodes[idx + 1]
    a_lo, b_lo, v_lo = bridge_coefficients(CONST, t_lo)
    a_hi, b_hi, v_hi = bridge_coefficients(CONST, t_hi)
    diff = pair_state(ep, grid, idx + 1, z) - pair_state(ep, grid, idx, z)
    expected = (a_hi - a_lo) * ep.x0 + (b_hi - b_lo) * ep.x1
    sd = abs(np.sqrt(v_hi) - np.sqrt(v_lo))
    se = sd / np.sqrt(n_draws)
    assert abs(diff.mean() - expected) <= 4.0 * se + 1e-12


def test_marginal_moments_gaussian_endpoints():
    # For independent Gaussian endpoints the marginal at t has mean
    # a*m0 + b*m1 and per-component variance a^2 s0^2 + b^2 s1^2 + cap_sigma2.
    rng = np.random.default_rng(17)
    m0, s0 = 1.0, 0.5
    m1, s1 = -2.0, 1.5
    t = 0.4
    n = 100_000
    a, b, v = bridge_coefficients(DEFAULT, t)
    x0 = m0 + s0 * rng.standard_normal(n)
    x1 = m1 + s1 * rng.standard_normal(n)
    z = rng.standard_normal(n)
    draws = a * x0 + b * x1 + np.sqrt(v) * z
    mean = a * m0 + b * m1
    var = a * a * s0 * s0 + b * b * s1 * s1 + v
    assert abs(draws.mean() - mean) <= 4.0 * np.sqrt(var / n)
    assert abs(draws.var(ddof=1) - var) <= 4.0 * var * np.sqrt(2.0 / (n - 1))
