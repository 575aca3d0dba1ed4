"""Pinned diffusion bridge: posterior sampling, the analytic score, and the
probability-flow ODE.

The bridge runs between a clean data vector ``x0`` and a prior endpoint
``x1`` of the same dimension.  At time ``t`` the conditional law is Gaussian
with mean ``a*x0 + b*x1`` and isotropic variance ``cap_sigma2`` (see
:mod:`stereobridge.schedule` for the coefficients).  All operations are pure
functions of their arguments plus an explicitly passed noise draw; random
streams are owned by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schedule import NoiseSchedule, beta_at, bridge_coefficients

# cap_sigma2 below this floor means we are numerically at an endpoint and
# score-like quantities would blow up; fail loudly instead.
VARIANCE_FLOOR = 1e-12


class NearEndpointError(ValueError):
    """Raised when the bridge variance is too close to zero to divide by."""


class DivergenceError(RuntimeError):
    """Raised when ODE integration produces a non-finite state."""

    def __init__(self, step: int, t: float):
        super().__init__(f"non-finite state at integration step {step} (t={t:.6g})")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class Endpoints:
    """The two pinned ends of the bridge: data ``x0`` and prior ``x1``.

    For stereo targets ``x0`` is the concatenation of the left and right
    channel vectors.
    """

    x0: np.ndarray
    x1: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=np.float64)
        x1 = np.asarray(self.x1, dtype=np.float64)
        if x0.shape != x1.shape:
            raise ValueError(f"endpoint shapes differ: {x0.shape} vs {x1.shape}")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(x1))):
            raise ValueError("endpoints must be finite")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)


@dataclass(frozen=True)
class BridgeSample:
    """A state ``x`` on the bridge at time ``t``."""

    x: np.ndarray
    t: float

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("bridge state must be finite")
        object.__setattr__(self, "x", x)


def posterior_moments(ep: Endpoints, t: float, sched: NoiseSchedule):
    """Mean and variance of the bridge conditional at time t.

    Returns ``(mu_t, cap_sigma2)`` for a scalar time ``t``.
    """
    a, b, cap_sigma2 = bridge_coefficients(sched, t)
    return a * ep.x0 + b * ep.x1, cap_sigma2


def bridge_state(a, b, sqrt_cap_sigma2, x0, x1, z):
    """The bridge state ``a*x0 + b*x1 + sqrt_cap_sigma2 * z``.

    The one copy of the state formula: the coefficients broadcast against
    the endpoints and the caller's standard-normal draw ``z``, so scalars
    give one time and (batch, 1) columns give one time per row.
    """
    return a * x0 + b * x1 + sqrt_cap_sigma2 * z


def sample_posterior(ep: Endpoints, t: float, sched: NoiseSchedule, z: np.ndarray) -> BridgeSample:
    """Draw the bridge state ``a*x0 + b*x1 + sqrt(cap_sigma2) * z``.

    ``z`` is a standard-normal draw supplied by the caller; its shape must
    match the endpoints (a leading batch axis is allowed when the endpoints
    carry one).
    """
    z = np.asarray(z, dtype=np.float64)
    if z.shape != ep.x0.shape:
        raise ValueError(f"noise shape {z.shape} does not match endpoints {ep.x0.shape}")
    a, b, cap_sigma2 = bridge_coefficients(sched, t)
    x = bridge_state(a, b, np.sqrt(cap_sigma2), ep.x0, ep.x1, z)
    return BridgeSample(x=x, t=float(t))


def _checked_cap_sigma2(sched: NoiseSchedule, t) -> float:
    _, _, cap_sigma2 = bridge_coefficients(sched, t)
    if np.any(np.asarray(cap_sigma2) <= VARIANCE_FLOOR):
        raise NearEndpointError(
            f"bridge variance {cap_sigma2!r} at t={t!r} is at or below the "
            f"{VARIANCE_FLOOR:g} floor"
        )
    return cap_sigma2


def analytic_posterior_score(x_t: np.ndarray, ep: Endpoints, t: float, sched: NoiseSchedule) -> np.ndarray:
    """Gradient of the log-density of the bridge conditional at ``x_t``.

    This is the exact Gaussian score ``-(x_t - mu_t) / cap_sigma2``.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    cap_sigma2 = _checked_cap_sigma2(sched, t)
    mu, _ = posterior_moments(ep, t, sched)
    return -(x_t - mu) / cap_sigma2


def pf_ode_drift(
    x_t: np.ndarray,
    x1: np.ndarray,
    t: float,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Drift of the probability-flow ODE at ``(x_t, t)``.

    ``0.5 * beta(t)^2 * (x1 - x_t) / cap_sigma2``, affine in ``x_t``.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    x1 = np.asarray(x1, dtype=np.float64)
    cap_sigma2 = _checked_cap_sigma2(sched, t)
    rate = beta_at(sched, t)
    return 0.5 * (rate * rate) * (x1 - x_t) / cap_sigma2


def heun_integrate(drift_fn, x0: np.ndarray, t0: float, t1: float, steps: int) -> np.ndarray:
    """Second-order Heun integration of ``dx/dt = drift_fn(x, t)``.

    Integrates from ``t0`` to ``t1`` (either direction) in ``steps`` uniform
    steps.  Deterministic given its inputs; raises :class:`DivergenceError`
    with the offending step index if the state goes non-finite.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    x = np.asarray(x0, dtype=np.float64).copy()
    h = (t1 - t0) / steps
    if h == 0.0:
        return x
    t = t0
    for i in range(steps):
        t_next = t0 + (i + 1) * (t1 - t0) / steps
        k1 = drift_fn(x, t)
        x_pred = x + h * k1
        k2 = drift_fn(x_pred, t_next)
        x = x + 0.5 * h * (k1 + k2)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(step=i, t=t_next)
        t = t_next
    return x


def integrate_pf_ode(
    start: BridgeSample,
    t_end: float,
    steps: int,
    x1: np.ndarray,
    sched: NoiseSchedule,
) -> BridgeSample:
    """Integrate the probability-flow ODE from ``start.t`` to ``t_end``."""
    if t_end == start.t:
        return start

    def drift(x, t):
        return pf_ode_drift(x, x1, t, sched)

    x = heun_integrate(drift, start.x, start.t, t_end, steps)
    return BridgeSample(x=x, t=float(t_end))

