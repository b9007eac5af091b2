import copy

import numpy as np
import pytest

import five_point
from five_point import (allocating_cg, allocating_newton, five_point_operator, from_sine,
                        harmonic_reference, jacobian_check, lift_rhs, lifted_solve, poisson_solve,
                        residual, sine_basis, slice_lift, slice_stencil)
from semidtn.dtn import bump_trace, dtn_apply, measurement, normal_derivative
from semidtn import forward_solver, sparse_linalg
from semidtn.harmonic import arc_supported_family
from semidtn.linearization import DirectionStore, measured_linearized_flux
from semidtn.forward_solver import (LINEAR_TOL, NewtonError, SmallnessError, harmonic_extension,
                                    solve_linear, solve_semilinear)
from semidtn.geometry import arc_mask, make_grid, trace_to_field
from semidtn.potential import PotentialSeries, sample_expression
from semidtn.sparse_linalg import assemble, solve_spd, to_sine


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
    half = half_arc_series(grid)
    return PotentialSeries.from_coefficients(grid, {
        2: half.coefficient(2), 3: half.coefficient(3), 4: sample_expression("1 + x*y", grid)})


def counting(solve, counts):
    """``solve`` that appends each call's CG iteration count to ``counts``."""
    def counted(A, b, tol=1e-10, callback=None, bound=None):
        steps = []
        x = solve(A, b, tol=tol, callback=steps.append, bound=bound)
        counts.append(len(steps))
        return x

    return counted


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
    # system is solved in scaled sine coordinates, through the certified
    # finish, and taken back to node values
    g = make_grid(8)
    lift = trace_to_field(np.ones(g.num_boundary), g)
    b = 1.0 - slice_stencil(lift, g)
    A, bound = assemble(np.ones((g.n - 1) ** 2), g)
    v = from_sine(solve_spd(A, to_sine(b, g), tol=LINEAR_TOL, bound=bound), g).ravel()
    assert v.shape == ((g.n - 1) ** 2,)
    assert np.max(np.abs(v - 1.0)) <= 1e-9


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
    A = five_point_operator(np.zeros((g.n - 1) ** 2), g)
    interior = source.reshape(17, 17)[1:-1, 1:-1].ravel()
    reference = solve_spd(lambda x: A @ x, interior, tol=LINEAR_TOL)
    v_int = v.reshape(17, 17)[1:-1, 1:-1].ravel()
    assert np.max(np.abs(v_int - reference)) <= 1e-10 * np.max(np.abs(reference))
    assert np.max(np.abs(slice_stencil(v, g) - interior)) <= 1e-10 * np.max(np.abs(interior))


def test_newton_step_cg_converges_in_few_iterations(monkeypatch):
    # under the smallness gate the Newton Jacobian -Lap + V'(u) is a small
    # perturbation of -Lap, so CG in scaled sine coordinates (the Poisson
    # preconditioner built in) needs a handful of iterations per step
    # (Jacobi needed ~250 at this size)
    g = make_grid(64)
    P = half_arc_series(g)
    counts = []
    monkeypatch.setattr(forward_solver, "solve_spd", counting(solve_spd, counts))
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
    # kernel's and the Newton work set's included: the next solves on the same
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
    # kernel; the reference Newton given a dense kernel of the same size runs
    # the dense products. On divided-difference inputs with the half-arc V2
    # and V3 both make the same Newton steps, 2 CG iterations each with the
    # certified finish, and the same measurement to rounding of its largest
    # value
    assert isinstance(sparse_linalg._kernel(n), sparse_linalg._Fold)
    g = make_grid(n)
    mask = arc_mask(g, 0.0, 2.0)
    P = half_arc_series(g)
    a, b, c = (bump_trace(g, s, w) for s, w in ((0.5, 0.5), (1.25, 0.25), (1.5, 0.5)))
    traces = (0.01 * (a + b - c), 0.01 * (-a + b + c))
    folded_counts, counts = [], []
    monkeypatch.setattr(forward_solver, "solve_spd", counting(solve_spd, folded_counts))
    folded = [dtn_apply(P, f, mask, g) for f in traces]
    monkeypatch.setattr(five_point, "allocating_cg", counting(allocating_cg, counts))
    dense = [allocating_newton(P, f, g, sparse_linalg._Dense(n)) for f in traces]
    assert counts == folded_counts
    assert len(counts) >= 2 and set(counts) == {2}
    for fs, (u, report) in zip(folded, dense):
        assert fs.report.iterations == report.iterations
        out = normal_derivative(u, g)
        out[~mask.flags] = 0.0
        assert np.max(np.abs(fs.output - out)) <= 1e-15 * np.max(np.abs(out))


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
    rows = forward_solver._stencil_rows(u, g, np.empty((n - 1) * (n + 1)))
    assert np.array_equal(rows.ravel(), slice_stencil(u, g))


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

    def overshooting_solve(A, b, tol=1e-10, callback=None, bound=None):
        return 3.0 * solve_spd(A, b, tol=tol, callback=callback, bound=bound)

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


def test_report_boundary_norm_tracked():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    _, report = solve_semilinear(P, np.full(g.num_boundary, 0.05), g)
    assert report.boundary_norm == pytest.approx(0.05)


def test_jacobian_check_linear_case_is_roundoff():
    g = make_grid(16)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u = harmonic_extension(f, g)
    # residual is linear in u; the remainder is floating-point noise divided
    # by tau^2 = 1e-8, so "round-off" lands well below 1e-4
    assert jacobian_check(PotentialSeries.zero(g), u, g) <= 1e-4


def test_jacobian_check_curvature_bound():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, _ = solve_semilinear(P, f, g)
    # second z-derivative of z^2/2 is 1, so the curvature ratio is at most 1/2
    assert jacobian_check(P, u, g) <= 0.5 + 1e-3


def test_jacobian_check_independent_of_state_for_quadratic():
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, _ = solve_semilinear(P, f, g)
    a = jacobian_check(P, u, g)
    b = jacobian_check(P, 0.5 * u, g)
    assert a == pytest.approx(b, abs=2e-4)


def test_residual_field_vanishes_at_solution():
    g = make_grid(16)
    g_x, g_y = g.node_coords()
    P = PotentialSeries.from_coefficients(g, {2: 1.0 + g_x})
    f = bump_trace(g, 0.5, 0.3, 0.05)
    u, report = solve_semilinear(P, f, g)
    res = residual(P, u, g)
    assert g.h * np.linalg.norm(res) <= 1e-11


def test_interior_forcing_consistency():
    # -Lap v = g with known manufactured solution v = sin(pi x) sin(pi y):
    # g must be the DISCRETE image of v for the check to be exact
    g = make_grid(16)
    x, y = g.node_coords()
    v_exact = np.sin(np.pi * x) * np.sin(np.pi * y)
    rhs_int = slice_stencil(v_exact, g)
    rhs = np.zeros(g.num_nodes)
    rhs.reshape(17, 17)[1:-1, 1:-1] = rhs_int.reshape(15, 15)
    v = solve_linear(rhs, v_exact[g.boundary_nodes], g)
    assert np.max(np.abs(v - v_exact)) <= 1e-9


def test_newton_converging_on_its_last_allowed_step_returns(monkeypatch):
    # with the cap at the step count an uncapped solve needs, the solve
    # returns the same field and count from the loop's last pass, which
    # makes no step; one step fewer raises. At a cap of 0 the loop's one
    # pass returns zero data's exact solution and raises, with the harmonic
    # start's residual, on other data
    g = make_grid(16)
    P = const_series(g, k2=1.0)
    f = bump_trace(g, 0.5, 0.25, 0.05)
    u, report = solve_semilinear(P, f, g)
    assert report.iterations >= 1
    monkeypatch.setattr(forward_solver, "DEFAULT_MAX_NEWTON", report.iterations)
    capped, capped_report = solve_semilinear(P, f, g)
    assert capped_report.iterations == report.iterations
    assert np.array_equal(capped, u)
    monkeypatch.setattr(forward_solver, "DEFAULT_MAX_NEWTON", report.iterations - 1)
    with pytest.raises(NewtonError, match="did not reach"):
        solve_semilinear(P, f, g)
    monkeypatch.setattr(forward_solver, "DEFAULT_MAX_NEWTON", 0)
    assert solve_semilinear(P, np.zeros(g.num_boundary), g)[1].iterations == 0
    with pytest.raises(NewtonError, match="did not reach") as info:
        solve_semilinear(P, f, g)
    assert info.value.residual == report.residual_history[0]


@pytest.mark.parametrize("n", [16, 32, 64])
def test_newton_work_is_one_set_per_grid_size(n, monkeypatch):
    # every solve on a grid takes the same four work arrays and the same start
    # ring, both held by one per-size state, and a solve on another grid other
    # ones. A solve that raises inside its loop leaves the set as its last step
    # left it; the next solve on the grid reads none of that and matches the
    # reference bit for bit. These data take two steps
    forward_solver._newton_state.cache_clear()
    state = forward_solver._newton_state(n)
    work = state.work
    assert len(work) == 4
    assert forward_solver._newton_state(n) is state
    assert all(a is b for a, b in zip(forward_solver._newton_state(n).work, work))
    other = forward_solver._newton_state(2 * n)
    arrays = (*work, state.traces, state.fields, state.stencils)
    assert not any(np.shares_memory(a, b) for a in (*other.work, other.traces, other.fields,
                                                    other.stencils) for b in arrays)
    g = make_grid(n)
    P = half_arc_series(g)
    f = 0.1 * bump_trace(g, 0.5, 0.5)
    with monkeypatch.context() as capped:
        capped.setattr(forward_solver, "DEFAULT_MAX_NEWTON", 1)
        with pytest.raises(NewtonError, match="did not reach"):
            solve_semilinear(P, f, g)
    u, report = solve_semilinear(P, f, g)
    assert np.array_equal(state.traces[0], f) and not state.traces[1:].any()  # one start
    ref_u, ref_report = allocating_newton(P, f, g)
    assert report.iterations == 2
    assert np.array_equal(u, ref_u)
    assert report == ref_report


@pytest.mark.parametrize("n", [32, 64, 128])
def test_newton_step_transforms_once_plus_a_round_trip_per_cg_iteration(n, monkeypatch):
    # a Newton step makes one forward transform of its right-hand side, one
    # round trip per CG iteration and one closing inverse transform of the
    # step to node values, which is the one the certified finish needs:
    # 1 + 2k + 1 transforms, six on recon-style data, where CG stops after
    # two operator applications. The harmonic start runs dense products of
    # its own, not the kernel's
    kind = type(sparse_linalg._kernel(n))
    calls = []

    def counted(name):
        method = getattr(kind, name)

        def transform(self, x, out):
            calls.append(name)
            return method(self, x, out)

        return transform

    for name in ("forward", "inverse"):
        monkeypatch.setattr(kind, name, counted(name))
    counts = []
    monkeypatch.setattr(forward_solver, "solve_spd", counting(solve_spd, counts))
    g = make_grid(n)
    a, b = bump_trace(g, 0.5, 0.5), bump_trace(g, 1.25, 0.25)
    _, report = solve_semilinear(half_arc_series(g), 0.01 * (a - b), g)
    assert report.converged and report.iterations == len(counts) >= 1
    assert calls.count("forward") == sum(counts) + report.iterations
    assert calls.count("inverse") == sum(counts) + report.iterations
    assert set(counts) == {2} and len(calls) == 6 * report.iterations


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_newton_step_meets_tolerance_on_true_residual(n, sign):
    # the step CG returns, taken back to node values, meets LINEAR_TOL on
    # its true residual r - (-Lap_h + c) delta, checked with the five-point
    # stencil plus c and measured, as CG's is, in the (-Lap_h)^-1 norm: on
    # a unit-size reaction term of either sign with a rough right-hand side,
    # and on the first Newton system of recon-style data (the slope and
    # residual at the harmonic start of an m=2 divided-difference input,
    # the slope's sign flipped for the negative case), where the finish is
    # taken after two iterations; n=128 runs the folded kernel
    g = make_grid(n)
    rng = np.random.default_rng(n)
    P = half_arc_series(g)
    u = harmonic_extension(0.01 * (bump_trace(g, 0.5, 0.5) - bump_trace(g, 1.25, 0.25)), g)
    slope = P.interior_slope(u.reshape(n + 1, n + 1)[1:-1, 1:-1]).ravel()
    for c, r in ((sign * rng.uniform(0.0, 2.0, (g.n - 1) ** 2), rng.normal(size=(g.n - 1) ** 2)),
                 (sign * slope, residual(P, u, g))):
        A, bound = assemble(c, g)
        steps = []
        x = solve_spd(A, to_sine(r, g), tol=LINEAR_TOL, callback=steps.append, bound=bound)
        gap = r - five_point_operator(c, g) @ from_sine(x, g).ravel()
        assert np.sqrt(gap @ poisson_solve(gap, g)) <= LINEAR_TOL * np.sqrt(r @ poisson_solve(r, g))
    assert len(steps) == 2


def counting_starts(monkeypatch):
    """The traces of the harmonic starts that solve_semilinear computes, in
    order, recorded by a wrapper of forward_solver.harmonic_extension; the
    start memo is emptied first."""
    starts = []

    def counted(f, grid):
        starts.append(f.copy())
        return harmonic_extension(f, grid)

    forward_solver._newton_state.cache_clear()
    monkeypatch.setattr(forward_solver, "harmonic_extension", counted)
    return starts


def divided_difference_data(g):
    """One input of an m=3 divided difference of the half-arc bumps."""
    a, b, c = (bump_trace(g, s, w) for s, w in HALF_ARC_BUMPS)
    return 0.01 * (a - b + c)


@pytest.mark.parametrize("n", [16, 24, 32, 40, 64, 128])
def test_scaled_data_reuse_the_harmonic_start_bit_for_bit(n, monkeypatch):
    # right after a solve with data f, a solve with c f for c = 1, -1, 2, -2
    # starts from c times f's start, computing none, and its field and whole
    # report match a solve from an empty memo and the reference Newton bit
    # for bit; at n = 24 and 40 h^2 is not a power of two
    g = make_grid(n)
    P = half_arc_series(g)
    f = divided_difference_data(g)
    starts = counting_starts(monkeypatch)
    for c in (1.0, -1.0, 2.0, -2.0):
        forward_solver._newton_state.cache_clear()
        fresh_u, fresh_report = solve_semilinear(P, c * f, g)
        forward_solver._newton_state.cache_clear()
        solve_semilinear(P, f, g)
        computed = len(starts)
        u, report = solve_semilinear(P, c * f, g)
        assert len(starts) == computed
        assert u.tobytes() == fresh_u.tobytes() and report == fresh_report
        ref_u, ref_report = allocating_newton(P, c * f, g)
        assert np.array_equal(u, ref_u) and report == ref_report
    assert len(starts) == 8


@pytest.mark.parametrize("n", [16, 24, 32])
def test_other_data_take_a_fresh_start(n, monkeypatch):
    # each second solve computes its own start from its own trace and matches
    # the reference Newton: a factor 3, 0.5 or 0, one node moved by one ulp,
    # and a factor 2 or -2 of a trace with a nonzero value below the
    # doubling floor, whose negation, and doubling at the floor, still reuse.
    # Each pair starts from an empty memo, so its first solve computes
    g = make_grid(n)
    P = half_arc_series(g)
    f = divided_difference_data(g)
    moved, tiny, floor = f.copy(), f.copy(), f.copy()
    node = int(np.flatnonzero(f)[len(np.flatnonzero(f)) // 3])
    moved[node] = np.nextafter(f[node], 1.0)
    off = int(np.flatnonzero(f == 0.0)[-1])
    tiny[off], floor[off] = 0.5 * forward_solver.DOUBLING_FLOOR, forward_solver.DOUBLING_FLOOR
    starts = counting_starts(monkeypatch)
    for first, second, fresh in ((f, 3.0 * f, True), (f, 0.5 * f, True), (f, 0.0 * f, True),
                                 (f, moved, True), (tiny, 2.0 * tiny, True),
                                 (tiny, -2.0 * tiny, True), (tiny, -tiny, False),
                                 (floor, 2.0 * floor, False), (floor, -2.0 * floor, False)):
        forward_solver._newton_state.cache_clear()
        solve_semilinear(P, first, g)
        computed = len(starts)
        u, report = solve_semilinear(P, second, g)
        assert len(starts) == computed + fresh
        assert np.array_equal(starts[-1], second if fresh else first)
        ref_u, ref_report = allocating_newton(P, second, g)
        assert np.array_equal(u, ref_u) and report == ref_report


def test_each_grid_size_keeps_its_own_start(monkeypatch):
    # a solve on another grid size between two on one grid computes its own
    # start, and the grid's next solve with -f still reuses f's
    g, other = make_grid(16), make_grid(32)
    f, f_other = divided_difference_data(g), divided_difference_data(other)
    starts = counting_starts(monkeypatch)
    solve_semilinear(half_arc_series(g), f, g)
    solve_semilinear(half_arc_series(other), f_other, other)
    u, report = solve_semilinear(half_arc_series(g), -f, g)
    assert [s.size for s in starts] == [f.size, f_other.size]
    assert np.array_equal(starts[1], f_other)
    ref_u, ref_report = allocating_newton(half_arc_series(g), -f, g)
    assert np.array_equal(u, ref_u) and report == ref_report


@pytest.mark.parametrize("c", [1.0, -1.0])
def test_returned_fields_do_not_alias_the_start_memo(c, monkeypatch):
    # overwriting the field of a computed start or of a reused one leaves
    # the memo as it was: the next reuse still matches the reference
    g = make_grid(32)
    P = half_arc_series(g)
    f = divided_difference_data(g)
    starts = counting_starts(monkeypatch)
    solve_semilinear(P, f, g)[0][:] = 1.0
    ref_u, ref_report = allocating_newton(P, c * f, g)
    for _ in range(3):
        u, report = solve_semilinear(P, c * f, g)
        assert np.array_equal(u, ref_u) and report == ref_report
        u[:] = 1.0
    assert len(starts) == 1


@pytest.mark.parametrize("noise_sigma", [0.0, 1e-6])
def test_each_direction_takes_one_harmonic_start(noise_sigma, monkeypatch):
    # through the measurement map, noisy or not, the four measurements of
    # each direction a DirectionStore takes compute one harmonic start, and
    # its Taylor coefficients match, bit for bit, those of a store whose
    # every measurement starts from an empty memo
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    family = arc_supported_family(mask, 6, g)
    measure = measurement(half_arc_series(g), mask, g, noise_sigma, seed=5)
    fresh_measure = measurement(half_arc_series(g), mask, g, noise_sigma, seed=5)

    def forgetful(trace):
        forward_solver._newton_state.cache_clear()
        return fresh_measure(trace)

    store = DirectionStore(measure, family, 0.01, mask, g)
    fresh = DirectionStore(forgetful, family, 0.01, mask, g)
    starts = counting_starts(monkeypatch)
    for S, m in (((0, 1), 2), ((0, 1), 3), ((2, 3, 3), 3), ((0,), 2), ((0, 0), 3),
                 ((5, 4), 2), ((1, 2, 5), 3)):
        computed, calls = len(starts), store.calls
        coeff = store.taylor(S, m)
        assert 4 * (len(starts) - computed) == store.calls - calls
        computed, calls = len(starts), fresh.calls
        assert np.array_equal(coeff, fresh.taylor(S, m))
        assert len(starts) - computed == fresh.calls - calls
    assert store.calls == fresh.calls == 20


def test_divided_differences_compute_one_start_per_negated_pair(monkeypatch):
    # in product order an m = 2, 3 or 4 divided difference computes the starts
    # of its first 2^(m-1) sign patterns and reuses them for their negations,
    # and each flux matches, bit for bit, that of a run whose every
    # measurement starts from an empty memo
    g = make_grid(32)
    mask = arc_mask(g, 0.0, 2.0)
    traces = [member.trace for member in arc_supported_family(mask, 6, g)]
    measure = measurement(half_arc_series(g), mask, g)
    fresh_measure = measurement(half_arc_series(g), mask, g)

    def forgetful(trace):
        forward_solver._newton_state.cache_clear()
        return fresh_measure(trace)

    starts = counting_starts(monkeypatch)
    for m in (2, 3, 4):
        forward_solver._newton_state.cache_clear()
        computed = len(starts)
        flux = measured_linearized_flux(measure, traces[:m], 0.01, mask, g)
        assert len(starts) - computed == 2 ** (m - 1)
        fresh = measured_linearized_flux(forgetful, traces[:m], 0.01, mask, g)
        assert len(starts) - computed == 2 ** (m - 1) + 2 ** m
        assert flux.tobytes() == fresh.tobytes()


def test_the_ninth_start_evicts_the_oldest(monkeypatch):
    # the memo keeps the last START_ENTRIES = 8 starts of a grid: after nine
    # distinct ones, -(the first) computes a fresh start and -(the ninth)
    # reuses the newest, both matching the reference Newton
    assert forward_solver.START_ENTRIES == 8
    g = make_grid(16)
    P = half_arc_series(g)
    data = [(0.5 + 0.05 * k) * divided_difference_data(g) for k in range(9)]
    starts = counting_starts(monkeypatch)
    for f in data:
        solve_semilinear(P, f, g)
    assert len(starts) == 9
    for f, fresh in ((-data[0], True), (-data[-1], False)):
        computed = len(starts)
        u, report = solve_semilinear(P, f, g)
        assert len(starts) == computed + fresh
        ref_u, ref_report = allocating_newton(P, f, g)
        assert np.array_equal(u, ref_u) and report == ref_report


@pytest.mark.parametrize("n", [24, 32])
def test_a_doubled_start_reuses_its_stencil_where_it_rounds_alike(n, monkeypatch):
    # a reused start reuses its stencil, which Newton's first residual then
    # does not run, except at |c| = 2 where h^2 is not a power of two (n = 24):
    # there the division by h^2 may round differently, and the stencil is run
    # again, for a trace with a value at DOUBLING_FLOOR as for any other
    g = make_grid(n)
    P = half_arc_series(g)
    f = divided_difference_data(g)
    floor = f.copy()
    floor[int(np.flatnonzero(f == 0.0)[-1])] = forward_solver.DOUBLING_FLOOR
    stencils = []

    def counted(u, grid, rows):
        stencils.append(u)
        return stencil_rows(u, grid, rows)

    stencil_rows = forward_solver._stencil_rows
    monkeypatch.setattr(forward_solver, "_stencil_rows", counted)
    for first, c, rerun in ((f, -1.0, False), (f, 2.0, n == 24), (f, -2.0, n == 24),
                            (floor, -1.0, False), (floor, 2.0, n == 24), (floor, -2.0, n == 24)):
        forward_solver._newton_state.cache_clear()
        solve_semilinear(P, first, g)
        ran = len(stencils)
        u, report = solve_semilinear(P, c * first, g)
        assert len(stencils) - ran == report.iterations + rerun
        ref_u, ref_report = allocating_newton(P, c * first, g)
        assert np.array_equal(u, ref_u) and report == ref_report
