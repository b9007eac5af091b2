import copy

import numpy as np
import pytest

from five_point import (allocating_newton, five_point_operator, harmonic_reference, lift_rhs,
                        lifted_solve, sine_basis, slice_lift, slice_stencil)
from semidtn.dtn import bump_trace, dtn_apply, normal_derivative
from semidtn import forward_solver, sparse_linalg
from semidtn.forward_solver import (LINEAR_TOL, NewtonError, SmallnessError, harmonic_extension,
                                    newton_jacobian_check, semilinear_residual,
                                    solve_linear, solve_semilinear, stencil_laplacian)
from semidtn.geometry import arc_mask, make_grid, trace_to_field
from semidtn.potential import PotentialSeries, sample_expression
from semidtn.sparse_linalg import assemble, from_sine, solve_spd, to_sine


def const_series(grid, **fields):
    return PotentialSeries.from_coefficients(
        grid, {int(k[1:]): np.full(grid.num_nodes, v) for k, v in fields.items()})


def half_arc_series(grid):
    """V2 and V3 of the half-arc reconstruction example."""
    return PotentialSeries.from_coefficients(grid, {
        2: sample_expression("exp(-4*((x-0.4)**2 + (y-0.6)**2))", grid),
        3: sample_expression("0.5*sin(pi*x)*sin(pi*y)", grid)})


def full_k4_series(grid):
    """V2, V3 and V4 of perfbench's full-arc K=4 reconstruction
    (perfbench/configs/recon_full_k4_n32.cfg)."""
    return half_arc_series(grid).with_coefficient(4, sample_expression("1 + x*y", grid))


def torsion_center_value(terms: int = 199) -> float:
    """Series value at the center of the unit square for -Lap phi = 1, phi = 0."""
    total = 0.0
    for j in range(1, terms + 1, 2):
        for k in range(1, terms + 1, 2):
            sign = (-1) ** ((j - 1) // 2) * (-1) ** ((k - 1) // 2)
            total += 16.0 / np.pi ** 4 * sign / (j * k * (j * j + k * k))
    return total


def test_constant_boundary_data_gives_constant():
    g = make_grid(16)
    v = solve_linear(None, np.ones(g.num_boundary), g)
    assert np.max(np.abs(v - 1.0)) <= 1e-9


def test_quadratic_harmonic_is_stencil_exact():
    g = make_grid(16)
    x, y = g.node_coords()
    exact = x * x - y * y
    v = solve_linear(None, exact[g.boundary_nodes], g)
    assert np.max(np.abs(v - exact)) <= 1e-9


def test_constant_solution_with_reaction():
    # -Lap v + v = 1 with v = 1 on the boundary is solved by v = 1; the
    # boundary values enter the right-hand side through the stencil, and the
    # system is solved in scaled sine coordinates
    g = make_grid(8)
    lift = trace_to_field(np.ones(g.num_boundary), g)
    b = 1.0 - stencil_laplacian(lift, g)
    y = solve_spd(assemble(np.ones(g.num_interior), g), to_sine(b, g), tol=LINEAR_TOL)
    assert np.max(np.abs(from_sine(y, g) - 1.0)) <= 1e-9


def test_zero_data_zero_solution():
    g = make_grid(16)
    P = const_series(g, k2=1.0, k3=0.5)
    u, report = solve_semilinear(P, np.zeros(g.num_boundary), g)
    assert not u.any()
    assert report.converged
    assert report.iterations <= 1


def test_zero_potential_is_harmonic_extension():
    g = make_grid(16)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, report = solve_semilinear(PotentialSeries.zero(g), f, g)
    assert report.converged
    assert report.iterations <= 1
    assert np.max(np.abs(u - harmonic_extension(f, g))) <= 1e-10


def test_poisson_direct_solve_matches_iterative():
    # the sine-basis solve and CG on the five-point stencil agree on a
    # zero-boundary problem; the direct one leaves a stencil residual at
    # rounding level
    g = make_grid(16)
    source = np.random.default_rng(2).normal(size=g.num_nodes)
    v = solve_linear(source, np.zeros(g.num_boundary), g)
    assert not v[g.boundary_nodes].any()
    A = five_point_operator(np.zeros(g.num_interior), g)
    interior = source.reshape(17, 17)[1:-1, 1:-1].ravel()
    reference = solve_spd(lambda x: A @ x, interior, tol=LINEAR_TOL)
    v_int = v.reshape(17, 17)[1:-1, 1:-1].ravel()
    assert np.max(np.abs(v_int - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert np.max(np.abs(stencil_laplacian(v, g) - interior)) <= 1e-10 * np.max(np.abs(interior))


def test_newton_step_cg_converges_in_few_iterations(monkeypatch):
    # under the smallness gate the Newton Jacobian -Lap + V'(u) is a small
    # perturbation of -Lap, so CG in scaled sine coordinates (the Poisson
    # preconditioner built in) needs a handful of iterations per step
    # (Jacobi needed ~250 at this size)
    g = make_grid(64)
    P = half_arc_series(g)
    counts = []

    def counting_solve(A, b, tol=1e-10, callback=None):
        steps = []
        x = solve_spd(A, b, tol=tol, callback=steps.append)
        counts.append(len(steps))
        return x

    monkeypatch.setattr(forward_solver, "solve_spd", counting_solve)
    for f in (np.full(g.num_boundary, 0.1), np.full(g.num_boundary, -0.1),
              bump_trace(g, 0.5, 0.3, 0.1), bump_trace(g, 1.5, 0.5, -0.1)):
        _, report = solve_semilinear(P, f, g)
        assert report.converged
    assert len(counts) >= 4
    assert max(counts) <= 5


HALF_ARC_BUMPS = ((0.5, 0.5), (1.25, 0.25), (1.5, 0.5))  # (center, width) on [0, 2)


@pytest.mark.parametrize("n, s1, series, bumps", [
    pytest.param(16, 2.0, half_arc_series, HALF_ARC_BUMPS, id="16"),
    pytest.param(32, 2.0, half_arc_series, HALF_ARC_BUMPS, id="32"),
    pytest.param(128, 2.0, half_arc_series, HALF_ARC_BUMPS, id="128"),
    # the benchmark's shapes: recon_half_k3's grid, and recon_full_k4_n32's
    # arc and three factor fields, with bumps on all four sides
    pytest.param(64, 2.0, half_arc_series, HALF_ARC_BUMPS, id="half-k3-64"),
    pytest.param(32, 4.0, full_k4_series, ((0.5, 0.5), (1.75, 0.25), (3.0, 1.0)),
                 id="full-k4-32")])
def test_newton_with_work_arrays_is_exact(n, s1, series, bumps):
    # the residuals and the slope in reused work arrays, with their Horner
    # polynomials evaluated in place, the lift's cached gather, the
    # Jacobian's reused intermediates and CG's reused vectors make the same
    # operations in the same order as a Newton loop that makes a new array
    # at every update: the field, the whole report and the measurement match
    # bit for bit, on divided-difference inputs and on data at the
    # smallness gate
    g = make_grid(n)
    mask = arc_mask(g, 0.0, s1)
    P = series(g)
    a, b, c = (bump_trace(g, s, w) for s, w in bumps)
    for f in (0.01 * (a + b - c), 0.01 * (-a + b + c), 0.1 * a, -0.1 * c):
        sample = dtn_apply(P, f, mask, g)
        u, report = solve_semilinear(P, f, g)
        ref_u, ref_report = allocating_newton(P, f, g)
        assert np.array_equal(u, ref_u)
        assert report == ref_report
        assert sample.report == ref_report
        ref_out = normal_derivative(ref_u, g)
        ref_out[~mask.flags] = 0.0
        assert np.array_equal(sample.output, ref_out)


@pytest.mark.parametrize("n", [32, 128])
def test_returned_arrays_survive_next_measurement(n):
    # no returned u, report or measurement holds a work array, the folded
    # kernel's and the Newton pool's included: the next solves on the same
    # grid, with the same series and with another one, leave all as they were
    g = make_grid(n)
    mask = arc_mask(g, 0.0, 2.0)
    P = half_arc_series(g)
    first, second = bump_trace(g, 0.5, 0.4, 0.05), bump_trace(g, 1.4, 0.3, -0.08)
    u, report = solve_semilinear(P, first, g)
    sample = dtn_apply(P, first, mask, g)
    kept_u, kept_out = u.copy(), sample.output.copy()
    kept_report, kept_sample_report = copy.deepcopy(report), copy.deepcopy(sample.report)
    for Q in (P, full_k4_series(g)):
        solve_semilinear(Q, second, g)
        dtn_apply(Q, second, mask, g)
    assert np.array_equal(u, kept_u)
    assert np.array_equal(sample.output, kept_out)
    assert report == kept_report and sample.report == kept_sample_report


@pytest.mark.parametrize("n", [128, 256])
def test_folded_newton_step_matches_dense_products(n, monkeypatch):
    # from FOLD_MIN_N up the Newton step transforms through the folded
    # kernel; with the switch moved above the grid it runs the dense
    # products (the two runs must see different kernels, not one cached
    # per size). On divided-difference inputs with the half-arc V2 and V3
    # both make the same Newton steps, 3 CG iterations each, and the same
    # measurement to rounding of its largest value
    assert n >= sparse_linalg.FOLD_MIN_N
    g = make_grid(n)
    mask = arc_mask(g, 0.0, 2.0)
    P = half_arc_series(g)
    a, b, c = (bump_trace(g, s, w) for s, w in ((0.5, 0.5), (1.25, 0.25), (1.5, 0.5)))
    traces = (0.01 * (a + b - c), 0.01 * (-a + b + c))
    counts = []

    def counting_solve(A, b, tol=1e-10, callback=None):
        steps = []
        x = solve_spd(A, b, tol=tol, callback=steps.append)
        counts.append(len(steps))
        return x

    monkeypatch.setattr(forward_solver, "solve_spd", counting_solve)
    folded = [dtn_apply(P, f, mask, g) for f in traces]
    folded_counts = counts[:]
    kinds = [type(sparse_linalg._kernel(g))]
    counts.clear()
    monkeypatch.setattr(sparse_linalg, "FOLD_MIN_N", n + 1)
    dense = [dtn_apply(P, f, mask, g) for f in traces]
    kinds.append(type(sparse_linalg._kernel(g)))
    assert kinds == [sparse_linalg._Fold, sparse_linalg._Dense]
    assert counts == folded_counts
    assert len(counts) >= 2 and set(counts) == {3}
    for fs, ds in zip(folded, dense):
        assert fs.report.iterations == ds.report.iterations
        assert np.max(np.abs(fs.output - ds.output)) <= 1e-15 * np.max(np.abs(ds.output))


@pytest.mark.parametrize("n", [8, 16, 33])
def test_rank4_lift_matches_dense_lift(n):
    # the boundary data's right-hand side lives on the four edge strips, two
    # sides meeting at each corner-adjacent node; its sine transform as a
    # rank-4 product matches the transform of the dense scatter-and-sum lift
    g = make_grid(n)
    f = np.random.default_rng(n).normal(size=g.num_boundary)
    dense = lift_rhs(f, g)
    m = n - 1
    for i, j in ((0, 0), (0, m - 1), (m - 1, 0), (m - 1, m - 1)):
        assert dense[i, j] != 0.0
    sine, _ = sine_basis(g)
    hat = forward_solver._lift_transform(trace_to_field(f, g).reshape(n + 1, n + 1), g)
    assert np.max(np.abs(hat - sine @ dense @ sine)) <= 1e-13 * np.max(np.abs(hat))
    u = harmonic_extension(f, g)
    assert np.max(np.abs(u - harmonic_reference(f, g))) <= 1e-13 * np.max(np.abs(f))


@pytest.mark.parametrize("n", [8, 16, 33, 128])
def test_rank4_lift_is_exact(n):
    # the lift's cached gather of the four edge strips, its division by h^2
    # and its two products give the strips cut by 2-D slices bit for bit,
    # and so does the harmonic start built on it; on n=33, h^2 is not a
    # power of two, so a multiplication by 1/h^2 in place of the division
    # would change the last bits
    g = make_grid(n)
    f = np.random.default_rng(n).normal(size=g.num_boundary)
    u2 = trace_to_field(f, g).reshape(n + 1, n + 1)
    assert np.array_equal(forward_solver._lift_transform(u2, g), slice_lift(u2, g))
    assert np.array_equal(harmonic_extension(f, g), lifted_solve(np.zeros(g.num_nodes), f, g))


@pytest.mark.parametrize("n", [8, 16, 33])
def test_contiguous_stencil_is_exact(n):
    # whole rows as flat slices, boundary columns dropped afterwards, give
    # the 2-D-slice stencil bit for bit
    g = make_grid(n)
    u = np.random.default_rng(n).normal(size=g.num_nodes)
    assert np.array_equal(stencil_laplacian(u, g), slice_stencil(u, g))


def test_zero_trace_solve_skips_lift_exactly():
    # a zero trace's lift transforms to zeros, and the source's transform
    # plus zeros is itself; a nonzero trace adds its lift to the source's
    g = make_grid(16)
    rng = np.random.default_rng(4)
    src = rng.normal(size=g.num_nodes)
    zero = np.zeros(g.num_boundary)
    assert np.array_equal(solve_linear(src, zero, g), lifted_solve(src, zero, g))
    f = rng.normal(size=g.num_boundary)
    assert np.array_equal(solve_linear(src, f, g), lifted_solve(src, f, g))


def test_smallness_gate():
    g = make_grid(8)
    P = const_series(g, k2=1.0)
    with pytest.raises(SmallnessError):
        solve_semilinear(P, np.full(g.num_boundary, 0.2), g)


def test_constant_data_torsion_oracle():
    # for V = z^2/2 and data eps, u = eps - phi eps^2/2 + O(eps^3) with phi the
    # solution of -Lap phi = 1; the center value of phi comes from the classic
    # double sine series, independent of this solver
    g = make_grid(64)
    P = const_series(g, k2=1.0)
    eps = 0.05
    u, report = solve_semilinear(P, np.full(g.num_boundary, eps), g)
    assert report.converged
    assert np.max(u) <= eps + 1e-10          # subharmonic: max on boundary
    center = u.reshape(g.n + 1, g.n + 1)[g.n // 2, g.n // 2]
    ratio = (eps - center) / (eps ** 2 / 2.0)
    assert ratio == pytest.approx(torsion_center_value(), rel=0.05)


def test_self_convergence_second_order():
    sols = {}
    for n in (16, 32, 64):
        g = make_grid(n)
        P = const_series(g, k2=1.0)
        u, _ = solve_semilinear(P, np.full(g.num_boundary, 0.05), g)
        sols[n] = u.reshape(n + 1, n + 1)
    e1 = np.max(np.abs(sols[16] - sols[32][::2, ::2]))
    e2 = np.max(np.abs(sols[32] - sols[64][::2, ::2]))
    assert 1.7 <= np.log2(e1 / e2) <= 2.3


def test_newton_quadratic_convergence():
    g = make_grid(32)
    P = const_series(g, k2=1.0)
    _, report = solve_semilinear(P, np.full(g.num_boundary, 0.1), g)
    hist = report.residual_history
    assert len(hist) >= 3
    checked = 0
    for rk, rk1 in zip(hist[:-1], hist[1:]):
        if 1e-9 <= rk <= 1e-3:
            assert rk1 <= 100.0 * rk * rk
            checked += 1
    assert checked >= 1


def test_newton_nonconvergence_detected(monkeypatch):
    g = make_grid(8)
    P = const_series(g, k2=1.0)
    # gate forced open; two iterations cannot absorb data this large
    monkeypatch.setattr(forward_solver, "DEFAULT_SMALLNESS_RADIUS", 100.0)
    monkeypatch.setattr(forward_solver, "DEFAULT_MAX_NEWTON", 2)
    with pytest.raises(NewtonError):
        solve_semilinear(P, np.full(g.num_boundary, 80.0), g)


def test_newton_divergence_detected(monkeypatch):
    # steps three times too long overshoot: the residual doubles each step,
    # and the third consecutive rise stops Newton before its cap
    g = make_grid(8)
    P = const_series(g, k2=1.0)

    def overshooting_solve(A, b, tol=1e-10, callback=None):
        return 3.0 * solve_spd(A, b, tol=tol, callback=callback)

    monkeypatch.setattr(forward_solver, "solve_spd", overshooting_solve)
    with pytest.raises(NewtonError, match="diverging") as info:
        solve_semilinear(P, np.full(g.num_boundary, 0.1), g)
    assert np.isfinite(info.value.residual)


def test_conditioning_guard_on_negative_slope():
    # a violently negative z-slope of the nonlinearity breaks the stencil
    # diagonal and is rejected instead of feeding CG an indefinite system
    from semidtn.sparse_linalg import SolverError
    g = make_grid(16)
    P = const_series(g, k2=-1e7)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    with pytest.raises(SolverError):
        solve_semilinear(P, f, g)


def test_maximum_principle_smoke():
    g = make_grid(16)
    P = const_series(g, k2=0.8, k3=0.3)
    f = bump_trace(g, 0.5, 0.3, 0.08)  # nonnegative data
    u, report = solve_semilinear(P, f, g)
    assert np.min(u) >= -10.0 * 1e-11


def test_report_solution_norm_tracked():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    u, report = solve_semilinear(P, np.full(g.num_boundary, 0.05), g)
    assert report.solution_norm == pytest.approx(np.max(np.abs(u)))
    assert report.boundary_norm == pytest.approx(0.05)


def test_jacobian_check_linear_case_is_roundoff():
    g = make_grid(16)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u = harmonic_extension(f, g)
    # residual is linear in u; the remainder is floating-point noise divided
    # by tau^2 = 1e-8, so "round-off" lands well below 1e-4
    assert newton_jacobian_check(PotentialSeries.zero(g), u, g) <= 1e-4


def test_jacobian_check_curvature_bound():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, _ = solve_semilinear(P, f, g)
    # second z-derivative of z^2/2 is 1, so the curvature ratio is at most 1/2
    assert newton_jacobian_check(P, u, g) <= 0.5 + 1e-3


def test_jacobian_check_independent_of_state_for_quadratic():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, _ = solve_semilinear(P, f, g)
    a = newton_jacobian_check(P, u, g)
    b = newton_jacobian_check(P, 0.5 * u, g)
    assert a == pytest.approx(b, abs=2e-4)


def test_residual_field_vanishes_at_solution():
    g = make_grid(16)
    g_x, g_y = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + g_x})
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, report = solve_semilinear(P, f, g)
    res = semilinear_residual(P, u, g)
    assert g.h * np.linalg.norm(res) <= 1e-11


def test_interior_forcing_consistency():
    # -Lap v = g with known manufactured solution v = sin(pi x) sin(pi y):
    # g must be the DISCRETE image of v for the check to be exact
    g = make_grid(16)
    x, y = g.node_coords()
    v_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
    from semidtn.forward_solver import stencil_laplacian
    rhs_int = stencil_laplacian(v_exact, g)
    rhs = np.zeros(g.num_nodes)
    rhs.reshape(17, 17)[1:-1, 1:-1] = rhs_int.reshape(15, 15)
    v = solve_linear(rhs, v_exact[g.boundary_nodes], g)
    assert np.max(np.abs(v - v_exact)) <= 1e-9
