from dataclasses import replace

import numpy as np
import pytest

from stereobridge.config import default_config
from stereobridge.schedule import (
    InvalidScheduleError,
    NoiseSchedule,
    TimeGrid,
    accumulated_variances,
    beta_at,
    bridge_coefficients,
    make_grid,
)

CONST = NoiseSchedule(beta0=1.0, beta1=1.0)
DEFAULT = NoiseSchedule()


def test_beta_constant_schedule():
    s = NoiseSchedule(beta0=0.1, beta1=0.1)
    assert beta_at(s, 0.5) == pytest.approx(0.1)


def test_beta_endpoints_and_midpoint():
    s = NoiseSchedule(beta0=0.1, beta1=20.0)
    assert beta_at(s, 0.0) == pytest.approx(0.1)
    # hand evaluation of the linear formula: 0.1 + 19.9 * 0.5
    assert beta_at(s, 0.5) == pytest.approx(10.05)


def test_beta_domain_error():
    with pytest.raises(ValueError):
        beta_at(DEFAULT, -0.01)
    with pytest.raises(ValueError):
        beta_at(DEFAULT, 1.01)


def test_positive_rate_required():
    with pytest.raises(InvalidScheduleError):
        NoiseSchedule(beta0=0.0, beta1=1.0)
    with pytest.raises(InvalidScheduleError):
        NoiseSchedule(beta0=1.0, beta1=-2.0)


def test_accumulated_variances_endpoints():
    total = DEFAULT.total_variance
    s2, sb2 = accumulated_variances(DEFAULT, 0.0)
    assert s2 == 0.0
    assert sb2 == pytest.approx(total)
    s2, sb2 = accumulated_variances(DEFAULT, 1.0)
    assert s2 == pytest.approx(total)
    assert sb2 == 0.0


def test_accumulated_variances_constant_rate():
    s2, sb2 = accumulated_variances(CONST, 0.3)
    assert s2 == pytest.approx(0.3)
    assert sb2 == pytest.approx(0.7)


def test_variances_sum_to_total():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.0, 1.0, size=2000)
    s2, sb2 = accumulated_variances(DEFAULT, t)
    total = DEFAULT.total_variance
    assert np.all(np.abs((s2 + sb2) - total) <= 1e-12 * total)


def test_variance_monotonicity():
    rng = np.random.default_rng(1)
    pairs = np.sort(rng.uniform(0.0, 1.0, size=(1000, 2)), axis=1)
    lo2, lob2 = accumulated_variances(DEFAULT, pairs[:, 0])
    hi2, hib2 = accumulated_variances(DEFAULT, pairs[:, 1])
    assert np.all(hi2 >= lo2)
    assert np.all(hib2 <= lob2)


def test_bridge_coefficients_symmetric_midpoint():
    a, b, v = bridge_coefficients(CONST, 0.5)
    assert (a, b, v) == pytest.approx((0.5, 0.5, 0.25))


def test_bridge_coefficients_quarter():
    # sigma2 = t, sigma_bar2 = 1 - t for the unit-rate schedule
    a, b, v = bridge_coefficients(CONST, 0.25)
    assert (a, b, v) == pytest.approx((0.75, 0.25, 0.1875))


def test_bridge_coefficients_pin_at_origin():
    a, b, v = bridge_coefficients(CONST, 1e-6)
    assert a > 1.0 - 1e-5
    assert b < 1e-5
    assert v < 1e-5


def test_weights_sum_exactly_one():
    rng = np.random.default_rng(2)
    t = rng.uniform(1e-4, 1.0 - 1e-4, size=500)
    a, b, v = bridge_coefficients(DEFAULT, t)
    assert np.all(a + b == 1.0)
    assert np.all(v >= 0.0)


def test_cap_sigma2_symmetric_under_swap():
    # cap_sigma2 depends symmetrically on the two accumulated variances, so
    # mirroring t around 1/2 in the constant schedule leaves it unchanged.
    for t in (0.1, 0.25, 0.4):
        _, _, v1 = bridge_coefficients(CONST, t)
        _, _, v2 = bridge_coefficients(CONST, 1.0 - t)
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_cap_sigma2_vanishes_at_ends():
    total = DEFAULT.total_variance
    for t in (1e-6, 1.0 - 1e-6):
        _, _, v = bridge_coefficients(DEFAULT, t)
        assert v < 1e-5 * total


def as_tuple(result):
    return result if isinstance(result, tuple) else (result,)


# The ends of the unit interval and every node of the recipe grid.
SCALAR_TIMES = np.concatenate([[0.0, 1.0], default_config().time_grid().nodes])


@pytest.mark.parametrize("fn", [beta_at, accumulated_variances, bridge_coefficients],
                         ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("sched", [DEFAULT, CONST], ids=["default", "constant"])
def test_scalar_time_gives_floats_equal_to_the_array_path(fn, sched):
    # A scalar time gives NumPy float64 scalars, which are floats, holding
    # bitwise the values the same times give as one array.
    columns = as_tuple(fn(sched, SCALAR_TIMES))
    for i, t in enumerate(SCALAR_TIMES.tolist()):
        values = as_tuple(fn(sched, t))
        assert len(values) == len(columns)
        for value, column in zip(values, columns):
            assert isinstance(value, float)
            assert np.float64(value).tobytes() == column[i].tobytes()


def test_make_grid_default_constants():
    grid = make_grid(120, 0.001, 0.999)
    assert len(grid.nodes) == 121
    assert grid.nodes[0] == pytest.approx(0.001)
    assert grid.nodes[-1] == pytest.approx(0.999)
    assert np.all(np.diff(grid.nodes) > 0)


def test_make_grid_single_step():
    grid = make_grid(1, 0.001, 0.999)
    assert list(grid.nodes) == pytest.approx([0.001, 0.999])


def test_make_grid_rejects_unit_endpoints():
    with pytest.raises(ValueError):
        make_grid(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        make_grid(0, 0.1, 0.9)


def reference_nodes(n_steps, t_min=0.001, t_max=0.999):
    """The grid formula as a standalone function built it."""
    i = np.arange(n_steps + 1, dtype=np.float64)
    nodes = t_min + i * (t_max - t_min) / n_steps
    nodes[-1] = t_max
    return nodes


@pytest.mark.parametrize("args", [(1, 0.001, 0.999), (12,), (120, 0.001, 0.999),
                                  (1000,), (8, 0.05, 0.95)])
def test_grid_nodes_are_the_reference_formula_bitwise(args):
    nodes = TimeGrid(*args).nodes
    want = reference_nodes(*args)
    assert nodes.dtype == np.float64
    assert nodes.tobytes() == want.tobytes()
    assert not nodes.flags.writeable


BAD_GRIDS = [
    {"n_steps": 0},
    {"t_min": 0.0},
    {"t_min": -0.1},
    {"t_max": 1.0},
    {"t_max": 1.5},
    {"t_min": 0.5, "t_max": 0.5},
    {"t_min": 0.6, "t_max": 0.4},
]


@pytest.mark.parametrize("bad", BAD_GRIDS, ids=repr)
def test_grid_rejects_bad_fields_at_construction(bad):
    with pytest.raises(ValueError):
        TimeGrid(**{"n_steps": 4, **bad})


@pytest.mark.parametrize("bad", BAD_GRIDS, ids=repr)
def test_grid_rejects_bad_fields_under_replace(bad):
    with pytest.raises(ValueError):
        replace(TimeGrid(4), **bad)


def test_grid_replace_rebuilds_the_nodes():
    grid = replace(TimeGrid(4), n_steps=8, t_min=0.05, t_max=0.95)
    assert grid.nodes.tobytes() == reference_nodes(8, 0.05, 0.95).tobytes()


def test_grid_takes_no_nodes():
    # Nodes at both ends, where the bridge variance vanishes, cannot be
    # handed in beside fields that disagree with them.
    with pytest.raises(TypeError):
        TimeGrid(n_steps=3, t_min=0.2, t_max=0.4, nodes=np.array([0.0, 0.5, 1.0]))


def test_grid_rejects_touching_zero():
    with pytest.raises(ValueError):
        TimeGrid(n_steps=2, t_min=0.0, t_max=0.5)


def test_grids_compare_by_their_fields():
    assert make_grid is TimeGrid
    assert make_grid(12) == make_grid(12)
    assert make_grid(12) == TimeGrid(12, 0.001, 0.999)
    assert make_grid(12) != make_grid(13)
    assert make_grid(12) != make_grid(12, 0.002)
    assert hash(make_grid(12)) == hash(make_grid(12))
