"""Diffusion rate schedule, accumulated variances and the discrete time grid.

The bridge process is driven by a linear rate function ``beta(t)`` on
``t in [0, 1]``.  Everything downstream (posterior coefficients, ODE drift,
consistency boundary scalings) is a closed-form function of the two
accumulated variances

    sigma2(t)     = integral of beta from 0 to t
    sigma_bar2(t) = integral of beta from t to 1

so no quadrature is involved anywhere.  All quantities are computed in
float64; ``t`` arguments may be scalars or numpy arrays and broadcast
elementwise.  A scalar ``t`` gives NumPy float64 scalars, which are
``float`` instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class InvalidScheduleError(ValueError):
    """Raised when a rate endpoint is not strictly positive."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Linear rate function beta(t) = beta0 + (beta1 - beta0) * t.

    Defaults follow the common variance-preserving convention
    (beta0=0.1, beta1=20.0).  Both endpoints must be strictly positive so
    beta(t) > 0 on all of [0, 1].
    """

    beta0: float = 0.1
    beta1: float = 20.0

    def __post_init__(self):
        if not (self.beta0 > 0.0 and self.beta1 > 0.0):
            raise InvalidScheduleError(
                f"beta endpoints must be positive, got ({self.beta0}, {self.beta1})"
            )

    @property
    def total_variance(self) -> float:
        """sigma2 at t=1: the full accumulated variance of the schedule."""
        return self.beta0 + 0.5 * (self.beta1 - self.beta0)


def _check_unit_time(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError(f"t must lie in [0, 1], got {t!r}")
    return t


def beta_at(s: NoiseSchedule, t):
    """Evaluate the rate function at time t (scalar or array)."""
    t = _check_unit_time(t)
    return s.beta0 + (s.beta1 - s.beta0) * t


def accumulated_variances(s: NoiseSchedule, t):
    """Variances accumulated from both ends of the unit interval.

    Returns ``(sigma2, sigma_bar2)`` where ``sigma2`` integrates beta over
    [0, t] and ``sigma_bar2`` over [t, 1].  Closed form for the linear rate:
    ``sigma2 = beta0*t + (beta1-beta0)*t^2/2``.
    """
    t = _check_unit_time(t)
    sigma2 = s.beta0 * t + 0.5 * (s.beta1 - s.beta0) * t * t
    sigma_bar2 = s.total_variance - sigma2
    # Guard roundoff at the t=1 endpoint.
    return sigma2, np.maximum(sigma_bar2, 0.0)


def bridge_coefficients(s: NoiseSchedule, t):
    """Interpolation weights and pinned variance of the bridge posterior.

    Returns ``(a, b, cap_sigma2)`` with

        a = sigma_bar2 / (sigma_bar2 + sigma2)      weight on the data end
        b = sigma2 / (sigma_bar2 + sigma2)          weight on the prior end
        cap_sigma2 = sigma_bar2 * sigma2 / (sigma_bar2 + sigma2)

    ``a + b = 1`` exactly; ``cap_sigma2`` vanishes at both endpoints
    (the process is pinned there).
    """
    sigma2, sigma_bar2 = accumulated_variances(s, t)
    total = sigma2 + sigma_bar2
    a = sigma_bar2 / total
    # b = 1 - a rather than sigma2 / total forces exact complementarity.
    b = 1.0 - a
    return a, b, sigma_bar2 * sigma2 / total


@dataclass(frozen=True)
class TimeGrid:
    """Uniform discretization t_0 = t_min < ... < t_N = t_max of (0, 1),
    used for training and sampling.

    ``n_steps`` is the number of intervals N, so there are N + 1 nodes,
    built read-only with the grid.  The ends are strictly inside (0, 1): the
    bridge variance vanishes at 0 and 1, so the grid must stop short of
    both.  Grids compare by their three fields.
    """

    n_steps: int
    t_min: float = 0.001
    t_max: float = 0.999
    nodes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0.0 < self.t_min < self.t_max < 1.0):
            raise ValueError(
                f"need 0 < t_min < t_max < 1, got t_min={self.t_min}, t_max={self.t_max}"
            )
        i = np.arange(self.n_steps + 1, dtype=np.float64)
        nodes = self.t_min + i * (self.t_max - self.t_min) / self.n_steps
        nodes[-1] = self.t_max
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)


# The name the acceptance checks build the grid by.
make_grid = TimeGrid
