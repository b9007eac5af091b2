import numpy as np
import pytest
from scipy.integrate import quad

from semidtn import dtn
from semidtn.geometry import (arc_mask, boundary_integral, check_field, check_trace,
                              full_mask, interior_integral, make_grid, trace_to_field)
from semidtn.dtn import bump_profile
from semidtn.potential import PotentialSeries


def test_make_grid_counts():
    g = make_grid(4)
    assert g.num_nodes == 25
    assert g.num_boundary == 16
    assert g.h == 0.25


def test_make_grid_spacing():
    assert make_grid(64).h == 0.015625


def test_make_grid_rejects_coarse():
    with pytest.raises(ValueError):
        make_grid(3)


def test_boundary_walk_starts_at_origin_ccw():
    g = make_grid(4)
    x, y = g.node_coords()
    bx = x[g.boundary_nodes]
    by = y[g.boundary_nodes]
    assert (bx[0], by[0]) == (0.0, 0.0)
    assert (bx[1], by[1]) == (0.25, 0.0)   # bottom side first
    assert (bx[4], by[4]) == (1.0, 0.0)    # corner at s = 1
    assert (bx[8], by[8]) == (1.0, 1.0)    # corner at s = 2


def test_corner_normals_follow_preceding_side():
    g = make_grid(4)
    nrm = {tuple(g.boundary_normals[k]) for k in range(g.num_boundary)}
    assert nrm == {(0, -1), (1, 0), (0, 1), (-1, 0)}
    assert tuple(g.boundary_normals[0]) == (-1, 0)    # (0,0) from left side
    assert tuple(g.boundary_normals[4]) == (0, -1)    # (1,0) from bottom side
    assert tuple(g.boundary_normals[8]) == (1, 0)     # (1,1) from right side
    assert tuple(g.boundary_normals[12]) == (0, 1)    # (0,1) from top side


def test_every_boundary_node_has_unit_normal():
    g = make_grid(7)
    norms = np.abs(g.boundary_normals).sum(axis=1)
    assert np.all(norms == 1)


def test_inward_nodes_step_against_the_normal():
    # the first and second inward node of each boundary node sit one and two
    # cells along -normal, so corners step along their preceding side; every
    # array the grid derives is read-only
    g = make_grid(7)
    x, y = g.node_coords()
    for steps, nodes in zip((1, 2), g.boundary_inward):
        assert np.allclose(x[nodes], x[g.boundary_nodes] - steps * g.h * g.boundary_normals[:, 0])
        assert np.allclose(y[nodes], y[g.boundary_nodes] - steps * g.h * g.boundary_normals[:, 1])
    for a in (g.boundary_nodes, g.boundary_s, g.boundary_normals, g.boundary_inward):
        assert not a.flags.writeable


def test_boundary_integral_perimeter():
    for n in (4, 16, 33):
        g = make_grid(n)
        assert boundary_integral(np.ones(g.num_boundary), full_mask(g), g) == pytest.approx(4.0)


def test_boundary_integral_side_length():
    g = make_grid(16)
    mask = arc_mask(g, 0.0, 1.0)
    val = boundary_integral(np.ones(g.num_boundary), mask, g)
    assert abs(val - 1.0) <= g.h + 1e-12


def test_boundary_integral_arclength_oracle():
    # exact antiderivative gives 8; the walk parameter jumps at the seam
    # (4 -> 0), so the node-weight rule carries exactly the 2h seam deficit
    for n in (8, 32):
        g = make_grid(n)
        val = boundary_integral(g.boundary_s.copy(), full_mask(g), g)
        assert val == pytest.approx(8.0 - 2.0 * g.h, abs=1e-12)
        assert abs(val - 8.0) <= 2.0 * g.h + 1e-12


def test_boundary_quadrature_order_on_seam_smooth_integrand():
    # smooth and 4-periodic along the walk; oracle from the antiderivative
    exact = 2.0  # integral of sin^2(pi s / 2) over one period of length 4
    errs = []
    for n in (8, 16, 32):
        g = make_grid(n)
        val = boundary_integral(np.sin(np.pi * g.boundary_s / 2) ** 2, full_mask(g), g)
        errs.append(abs(val - exact))
    for e in errs:
        assert e <= 1e-12  # trapezoid is exact for this low harmonic


def test_boundary_quadrature_order_on_arc_bump():
    exact = 0.8 * quad(lambda t: bump_profile(np.array([t]))[0], -1.0, 1.0, epsabs=1e-14)[0]
    errs = []
    for n in (8, 16, 32):
        g = make_grid(n)
        mask = arc_mask(g, 0.0, 2.0)
        val = boundary_integral(bump_profile((g.boundary_s - 1.0) / 0.8), mask, g)
        errs.append(max(abs(val - exact), 1e-15))
    order = np.log2(errs[0] / errs[1])
    assert order >= 2.0


def test_interior_integral_constant_exact():
    g = make_grid(9)
    assert interior_integral(np.ones(g.num_nodes), g) == pytest.approx(1.0, abs=1e-14)


def test_interior_integral_linear_symmetry():
    g = make_grid(12)
    x, _ = g.node_coords()
    assert interior_integral(x, g) == pytest.approx(0.5, abs=1e-13)


def test_interior_integral_x2y2_oracle():
    # trapezoid of x^2 on [0,1] is exactly 1/3 + h^2/6; tensor square of that
    for n in (4, 16, 64):
        g = make_grid(n)
        x, y = g.node_coords()
        val = interior_integral(x * x * y * y, g)
        one_d = 1.0 / 3.0 + g.h ** 2 / 6.0
        assert val == pytest.approx(one_d ** 2, abs=1e-13)
        assert abs(val - 1.0 / 9.0) <= 0.5 * g.h ** 2


def test_interior_quadrature_order():
    errs = []
    for n in (8, 16, 32):
        g = make_grid(n)
        x, y = g.node_coords()
        errs.append(abs(interior_integral(x * x * y * y, g) - 1.0 / 9.0))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert all(o >= 1.9 for o in orders)


def test_complementary_masks_sum_to_full():
    g = make_grid(16)
    rng = np.random.default_rng(3)
    trace = rng.normal(size=g.num_boundary)
    for s0, s1 in ((0.0, 1.3), (0.5, 2.75), (3.25, 4.0)):
        mask = arc_mask(g, s0, s1)
        comp = arc_mask(g, s1 % 4.0, s1 % 4.0 + (4.0 - (s1 - s0)))
        assert not np.any(mask.flags & comp.flags)
        assert np.all(mask.flags | comp.flags)
        total = boundary_integral(trace, mask, g) + boundary_integral(trace, comp, g)
        assert total == pytest.approx(boundary_integral(trace, full_mask(g), g), rel=1e-12)


def test_interior_integral_linear_in_field():
    g = make_grid(10)
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=g.num_nodes), rng.normal(size=g.num_nodes)
    lhs = interior_integral(2.5 * a - 0.5 * b, g)
    rhs = 2.5 * interior_integral(a, g) - 0.5 * interior_integral(b, g)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_full_arc_flags_everything():
    g = make_grid(8)
    assert full_mask(g).flags.all()


def test_arc_mask_half_open():
    g = make_grid(8)
    mask = arc_mask(g, 0.0, 1.0)
    # node at s = 1.0 (the corner (1,0)) is excluded
    assert mask.flags.sum() == g.n
    assert not mask.flags[g.n]


def test_arc_mask_wraps_around_origin():
    g = make_grid(8)
    mask = arc_mask(g, 3.5, 4.5)
    s = g.boundary_s
    expected = (s >= 3.5) | (s < 0.5)
    assert np.array_equal(mask.flags, expected)


def test_arc_mask_validation():
    g = make_grid(8)
    with pytest.raises(ValueError):
        arc_mask(g, 0.0, 0.0)
    with pytest.raises(ValueError):
        arc_mask(g, 0.0, 4.5)
    with pytest.raises(ValueError):
        arc_mask(g, 4.2, 4.4)


def test_trace_field_round_trip():
    g = make_grid(6)
    rng = np.random.default_rng(0)
    trace = rng.normal(size=g.num_boundary)
    assert np.array_equal(trace_to_field(trace, g)[g.boundary_nodes], trace)


def test_length_mismatch_rejected():
    g = make_grid(8)
    with pytest.raises(ValueError):
        boundary_integral(np.ones(7), full_mask(g), g)
    with pytest.raises(ValueError):
        interior_integral(np.ones(12), g)


def test_nonfinite_input_rejected(monkeypatch):
    # traces and fields holding NaN or an infinity are rejected, and a
    # measurement rejects a NaN trace before it solves anything
    g = make_grid(8)
    for bad in (np.nan, np.inf, -np.inf):
        trace = np.zeros(g.num_boundary)
        trace[3] = bad
        field = np.zeros(g.num_nodes)
        field[40] = bad
        with pytest.raises(ValueError, match="trace contains non-finite values"):
            check_trace(trace, g)
        with pytest.raises(ValueError, match="field contains non-finite values"):
            check_field(field, g)
    solves = []
    monkeypatch.setattr(dtn, "solve_semilinear", lambda *args: solves.append(args))
    trace = np.zeros(g.num_boundary)
    trace[3] = np.nan
    with pytest.raises(ValueError, match="trace contains non-finite values"):
        dtn.dtn_apply(PotentialSeries.zero(g), trace, full_mask(g), g)
    assert not solves
