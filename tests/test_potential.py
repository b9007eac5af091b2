import math

import numpy as np
import pytest

from semidtn.geometry import make_grid
from semidtn.potential import PotentialSeries, sample_expression


@pytest.fixture
def grid():
    return make_grid(8)


def series(grid, **fields):
    return PotentialSeries.from_coefficients(
        grid, {int(k[1:]): np.full(grid.num_nodes, v) for k, v in fields.items()})


def interior_state(P, z):
    """The constant interior state z, (n-1, n-1), of the series' grid."""
    side = math.isqrt(P.coeffs[0].size) - 2
    return np.full((side, side), float(z))


def value_at(P, node, z):
    """V(x_node, z) at the interior node of flat interior index ``node``,
    read off interior_value at the constant state z."""
    return float(P.interior_value(interior_state(P, z)).ravel()[node])


def slope_at(P, node, z):
    """d/dz V(x_node, z) at the interior node of flat interior index
    ``node``, read off interior_slope at the constant state z."""
    return float(P.interior_slope(interior_state(P, z)).ravel()[node])


def test_value_zero_at_origin(grid):
    P = series(grid, k2=1.3, k3=-0.7)
    assert value_at(P, 5, 0.0) == 0.0
    assert slope_at(P, 5, 0.0) == 0.0


def test_value_single_term(grid):
    P = series(grid, k2=2.0)
    assert value_at(P, 0, 3.0) == pytest.approx(9.0)


def test_value_two_terms(grid):
    # 1*z^2/2 + 6*z^3/6 at z=2: 2 + 8 = 10
    P = series(grid, k2=1.0, k3=6.0)
    assert value_at(P, 3, 2.0) == pytest.approx(10.0)


def test_slope_single_term(grid):
    P = series(grid, k2=2.0)
    assert slope_at(P, 0, 3.0) == pytest.approx(6.0)


def test_slope_two_terms(grid):
    # 1*z + 6*z^2/2 at z=2: 2 + 12 = 14
    P = series(grid, k2=1.0, k3=6.0)
    assert slope_at(P, 0, 2.0) == pytest.approx(14.0)


def test_coefficient_accessor(grid):
    v2 = np.linspace(0.0, 1.0, grid.num_nodes)
    P = PotentialSeries.from_coefficients(grid, {2: v2})
    assert np.array_equal(P.coefficient(2), v2)


def test_coefficient_beyond_truncation_is_zero(grid):
    P = series(grid, k2=1.0)
    assert not P.coefficient(P.kmax + 1).any()


def test_coefficient_below_two_rejected(grid):
    P = series(grid, k2=1.0)
    with pytest.raises(ValueError):
        P.coefficient(1)


def test_slope_matches_central_difference(grid):
    # |slope - central difference| = delta^2 * V''' / 6; with V3 = 6 the
    # third z-derivative is 6, so the error is exactly delta^2 to leading order
    P = series(grid, k2=1.0, k3=6.0, k4=-2.0)
    z = 0.7
    errs = []
    for delta in (1e-3, 1e-4):
        fd = (value_at(P, 0, z + delta) - value_at(P, 0, z - delta)) / (2.0 * delta)
        errs.append(abs(slope_at(P, 0, z) - fd))
    ratio = errs[0] / errs[1]
    assert 50.0 <= ratio <= 200.0


def test_value_is_polynomial_of_degree_kmax(grid):
    # divided difference of order kmax+1 over kmax+2 points must vanish
    P = series(grid, k2=0.4, k3=-1.1, k4=2.5)
    pts = np.linspace(-0.5, 0.5, P.kmax + 2)
    vals = np.array([value_at(P, 0, z) for z in pts])
    for _ in range(P.kmax + 1):
        vals = np.diff(vals) / (pts[1] - pts[0])
    assert np.max(np.abs(vals)) <= 1e-7


def test_value_field_matches_value_at(grid):
    rng = np.random.default_rng(0)
    P = PotentialSeries.from_coefficients(
        grid, {2: rng.normal(size=grid.num_nodes), 3: rng.normal(size=grid.num_nodes)})
    u = rng.normal(size=grid.num_nodes)
    inner = u.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1]
    field = P.interior_value(inner).ravel()
    for node in (0, 17, (grid.n - 1) ** 2 - 1):
        single = PotentialSeries.from_coefficients(
            grid, {2: P.coefficient(2), 3: P.coefficient(3)})
        assert field[node] == pytest.approx(value_at(single, node, inner.ravel()[node]),
                                            rel=1e-12)


def test_zero_series_is_zero(grid):
    P = PotentialSeries.zero(grid)
    assert P.is_zero
    assert value_at(P, 0, 0.3) == 0.0


def test_sample_expression_vocabulary(grid):
    x, y = grid.node_coords()
    assert np.allclose(sample_expression("1 + x", grid), 1.0 + x)
    assert np.allclose(sample_expression("sin(pi*x)*sin(pi*y)", grid),
                       np.sin(np.pi * x) * np.sin(np.pi * y))
    got = sample_expression("exp(-30*((x-0.4)**2 + (y-0.6)**2))", grid)
    assert np.allclose(got, np.exp(-30 * ((x - 0.4) ** 2 + (y - 0.6) ** 2)))
    assert np.allclose(sample_expression("0.5", grid), 0.5)


def test_sample_expression_rejects_unknown_names(grid):
    with pytest.raises(ValueError):
        sample_expression("__import__('os')", grid)
    with pytest.raises(ValueError):
        sample_expression("zebra + 1", grid)
    for expr in ("x.real", "sin.__self__", "exp(x=1)", "sin(x, y)", "x // 2", "[x]", "1j"):
        with pytest.raises(ValueError):
            sample_expression(expr, grid)


def test_sample_expression_overflow_is_rejected_at_once(grid):
    # literals are floats, so a tower of powers overflows instead of growing
    # a big integer for seconds or hours. An overflow, a division by zero or
    # a step out of the reals is rejected where it happens, also where a later
    # step would hide it (1/inf is 0) or keep only a real part (x*(-1)**0.5)
    for expr in ("9**9**9", "exp(1000*x)", "1/exp(1000*x)", "1e308*10", "1/(1e308*10)",
                 "(-1)**0.5", "x*(-1)**0.5", "(-pi)**pi", "1/(x-x)", "(x-2)**0.5", "0/0"):
        with pytest.raises(ValueError, match="cannot evaluate"):
            sample_expression(expr, grid)
    # a literal beyond float64's range parses to inf without any arithmetic,
    # so it is rejected as a literal, also where a later step would make it 0
    for expr in ("1e400", "1/1e400", "x/1e400", "exp(-1e400)"):
        with pytest.raises(ValueError, match="literal 1e400 overflows float64"):
            sample_expression(expr, grid)
    # underflow to zero is kept, of a step and of a literal
    x, _ = grid.node_coords()
    assert np.array_equal(sample_expression("exp(-1000*x)", grid), np.exp(-1000.0 * x))
    assert not sample_expression("1e-400", grid).any()


def test_series_shape_validation(grid):
    with pytest.raises(ValueError):
        PotentialSeries(3, (np.ones(grid.num_nodes), np.ones(grid.num_nodes - 1)))
    with pytest.raises(ValueError):
        PotentialSeries.from_coefficients(grid, {1: np.ones(grid.num_nodes)})
    with pytest.raises(ValueError):
        PotentialSeries.from_coefficients(grid, {2: np.ones(grid.num_nodes + 3)})
