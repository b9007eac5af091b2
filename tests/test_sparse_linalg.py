import numpy as np
import pytest

from five_point import allocating_cg, five_point_operator, sine_basis
from semidtn.geometry import make_grid
from semidtn.sparse_linalg import (FOLD_MIN_N, SolverError, _Dense, _Fold, assemble, from_sine,
                                   solve_spd, to_sine)


def materialize(A, dim):
    """Dense matrix of an operator, one column per unit vector."""
    return np.column_stack([A(e) for e in np.eye(dim)])


def poisson(g):
    """The five-point -Lap_h on interior nodes."""
    A = five_point_operator(np.zeros(g.num_interior), g)
    return lambda x: A @ x


def conjugated_reference(c_int, g):
    """The five-point -Lap_h + diag(c) in scaled sine coordinates,
    Lam^(-1/2) (S x S) A (S x S) Lam^(-1/2), from the sparse reference."""
    sine, eig = sine_basis(g)
    Q = np.kron(sine, sine) / np.sqrt(eig).ravel()  # column j scaled by Lam_j^(-1/2)
    return Q.T @ five_point_operator(c_int, g).toarray() @ Q


def physical(M, g):
    """A sine-coordinate matrix taken back to interior nodes."""
    sine, eig = sine_basis(g)
    Q_inv = np.sqrt(eig).ravel()[:, None] * np.kron(sine, sine)
    return Q_inv.T @ M @ Q_inv


def test_assemble_poisson_diagonal():
    # with no reaction term the Jacobian is -Lap_h, the identity in scaled
    # sine coordinates; taken back to the nodes, its diagonal is 4/h^2
    g = make_grid(4)
    M = materialize(assemble(np.zeros(g.num_interior), g), 9)
    assert M.shape == (9, 9)
    assert np.allclose(M, np.eye(9))
    assert np.allclose(np.diag(physical(M, g)), 64.0)


def test_assemble_reaction_shift():
    # a unit reaction term adds Lam^-1 in sine coordinates, and 1 to the
    # nodal diagonal
    g = make_grid(4)
    M = materialize(assemble(np.ones(g.num_interior), g), 9)
    assert np.allclose(M, np.eye(9) + np.diag(1.0 / sine_basis(g)[1].ravel()))
    assert np.allclose(np.diag(physical(M, g)), 65.0)


def test_assemble_matches_sparse_reference():
    # each operator applies the reaction term it was built with, whatever
    # was assembled after it, and equals the conjugated five-point operator
    # to rounding, also for reaction values next to the negative gate
    rng = np.random.default_rng(4)
    for n in (8, 16):
        g = make_grid(n)
        gate = 4.0 / g.h ** 2
        c1, c2 = rng.uniform(-0.99 * gate, 2.0, (2, g.num_interior))
        c1[rng.integers(0, g.num_interior, 5)] = -gate * (1.0 - 1e-12)
        A1 = assemble(c1, g)
        A2 = assemble(c2, g)
        for A, c in ((A1, c1), (A2, c2)):
            ref = conjugated_reference(c, g)
            M = materialize(A, g.num_interior)
            assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_assembled_operators_applied_in_turn():
    # each operator keeps its own reaction term and intermediates, and every
    # application returns a new array: two operators applied in turn give
    # what each gives alone, and no kept result changes afterwards
    g = make_grid(16)
    rng = np.random.default_rng(6)
    c1, c2 = rng.uniform(-1.0, 2.0, (2, g.num_interior))
    ys = rng.normal(size=(3, g.num_interior))
    alone = [[assemble(c, g)(y) for y in ys] for c in (c1, c2)]
    A1, A2 = assemble(c1, g), assemble(c2, g)
    in_turn = [(A1(y), A2(y)) for y in ys]
    for (out1, out2), ref1, ref2 in zip(in_turn, *alone):
        assert np.array_equal(out1, ref1)
        assert np.array_equal(out2, ref2)


def test_assemble_symmetry():
    g = make_grid(8)
    rng = np.random.default_rng(1)
    M = materialize(assemble(rng.uniform(0.0, 2.0, g.num_interior), g), g.num_interior)
    assert np.max(np.abs(M - M.T)) <= 1e-15 * np.max(np.abs(M))


def test_assemble_rejects_negative_reaction():
    # a negative reaction term is accepted while the stencil diagonal stays
    # positive (a Newton step's slope can be negative); beyond that, rejected
    g = make_grid(4)
    c = np.zeros(g.num_interior)
    c[4] = -1.0  # the middle interior node
    M = physical(materialize(assemble(c, g), 9), g)
    assert M[4, 4] == pytest.approx(63.0)
    c[4] = -64.0  # diagonal 4/h^2 + c = 0
    with pytest.raises(SolverError):
        assemble(c, g)


def test_assemble_rejects_nonfinite():
    # -inf would also break the diagonal gate; finiteness is checked first
    g = make_grid(4)
    for bad in (np.nan, np.inf, -np.inf):
        c = np.zeros(g.num_interior)
        c[4] = bad
        with pytest.raises(ValueError, match="non-finite"):
            assemble(c, g)
    with pytest.raises(ValueError):
        assemble(np.zeros(g.num_nodes), g)


def test_weak_diagonal_dominance():
    g = make_grid(8)
    M = physical(materialize(assemble(np.zeros(g.num_interior), g), g.num_interior), g)
    off = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    assert np.all(off <= np.diag(M) + 1e-9)


def test_discrete_eigenvalue_oracle():
    # sin(pi x) sin(pi y) sampled on interior nodes is an exact eigenvector of
    # the 5-point operator; eigenvalue (8/h^2) sin^2(pi h/2), within 5% of 2 pi^2
    # at n=64. The coordinates of v are y = to_sine(-Lap_h v), and
    # v.(-Lap_h v) = y.y
    g = make_grid(64)
    A = assemble(np.zeros(g.num_interior), g)
    x, y = g.node_coords()
    v = (np.sin(np.pi * x) * np.sin(np.pi * y)).reshape(65, 65)[1:-1, 1:-1].ravel()
    coords = to_sine(poisson(g)(v), g)
    assert np.allclose(from_sine(coords, g).ravel(), v, rtol=0.0, atol=1e-13)
    rayleigh = (coords @ A(coords)) / (v @ v)
    lam_h = 8.0 / g.h ** 2 * np.sin(np.pi * g.h / 2.0) ** 2
    assert rayleigh == pytest.approx(lam_h, rel=1e-10)
    assert abs(lam_h - 2.0 * np.pi ** 2) <= 0.05 * 2.0 * np.pi ** 2


def test_sine_coordinates_round_trip():
    # to_sine maps a residual r to Lam^(-1/2) S r S, so from_sine inverts
    # it up to the Poisson solve: from_sine(to_sine(r)) = (-Lap_h)^-1 r
    g = make_grid(16)
    r = np.random.default_rng(3).normal(size=g.num_interior)
    A = poisson(g)
    v = from_sine(to_sine(r, g), g).ravel()
    assert np.max(np.abs(A(v) - r)) <= 1e-11 * np.max(np.abs(r))


def mode_order(g, folded):
    """Index of mode k in a kernel's coordinates: odd modes first, then even
    ones, when folded; at position k - 1 otherwise."""
    k = np.r_[0:g.n - 1:2, 1:g.n - 1:2] if folded else np.arange(g.n - 1)
    return np.ix_(k, k)


def unfolded(y, g, folded):
    """Modes in a kernel's order, (n-1)^2 values, back in the order k = 1..n-1."""
    out = np.empty((g.n - 1, g.n - 1))
    out[mode_order(g, folded)] = y.reshape(out.shape)
    return out


def assert_close(a, ref, rel=1e-13):
    assert a.shape == ref.shape
    assert np.max(np.abs(a - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("n, kind", [(8, _Fold), (9, _Fold), (8, _Dense), (9, _Dense)],
                         ids=["8", "9", "dense-8", "dense-9"])
def test_folded_kernel_matches_dense_products(n, kind):
    # each Newton-step kernel, called directly on both parities of n - 1
    # (on even n the fold's middle row is read by the odd modes alone):
    # forward is S X S with modes in the kernel's order, odd-then-even when
    # folded, inverse is S Y S of such modes, and the scale is Lam^(-1/2) in
    # that order. The dense kernel makes the very products S @ X @ S, so the
    # Newton step's results stay bit for bit those of the plain products
    g = make_grid(n)
    m = n - 1
    folded = kind is _Fold
    sine, eig = sine_basis(g)
    kernel = kind(n)
    rng = np.random.default_rng(n)
    x, y = rng.normal(size=(2, m, m))
    order = mode_order(g, folded)
    assert_close(kernel.forward(x, np.empty((m, m))), (sine @ x @ sine)[order])
    assert_close(kernel.inverse(y, np.empty((m, m))), sine @ unfolded(y, g, folded) @ sine)
    assert_close(kernel.inverse(kernel.forward(x, np.empty((m, m))), np.empty((m, m))), x)
    assert_close(kernel.scale, (1.0 / np.sqrt(eig))[order], rel=1e-15)
    if not folded:
        assert np.array_equal(kernel.forward(x, np.empty((m, m))), sine @ x @ sine)


@pytest.mark.parametrize("n", [128, 129, 32])
def test_folded_newton_transforms_match_dense_products(n):
    # to_sine, from_sine and the Jacobian run the grid's kernel, folded in
    # odd-then-even mode order from FOLD_MIN_N up and dense below: in
    # natural mode order they match the dense products, and the Jacobian
    # matches the five-point operator conjugated by them. Every result is
    # kept until all are made, so none may be a work array of the kernel or
    # of the operator
    folded = n >= FOLD_MIN_N
    g = make_grid(n)
    m = n - 1
    sine, eig = sine_basis(g)
    scale = 1.0 / np.sqrt(eig)
    rng = np.random.default_rng(n)
    r, y = rng.normal(size=(2, m * m))
    c = rng.uniform(-1.0, 2.0, m * m)
    ys = rng.normal(size=(3, m * m))
    A = assemble(c, g)
    coords, nodes = to_sine(r, g), from_sine(y, g)
    applied = [A(v) for v in ys]
    assert coords.shape == (m * m,) and nodes.shape == (m, m)
    assert_close(unfolded(coords, g, folded), scale * (sine @ r.reshape(m, m) @ sine))
    assert_close(nodes, sine @ (scale * unfolded(y, g, folded)) @ sine)
    jacobian = five_point_operator(c, g)
    for v, w in zip(ys, applied):
        physical = sine @ (scale * unfolded(v, g, folded)) @ sine
        ref = scale * (sine @ (jacobian @ physical.ravel()).reshape(m, m) @ sine)
        assert w.shape == (m * m,)
        assert_close(unfolded(w, g, folded), ref)


def test_solve_zero_rhs():
    g = make_grid(8)
    A = poisson(g)
    assert np.array_equal(solve_spd(A, np.zeros(g.num_interior)),
                          np.zeros(g.num_interior))


def test_solve_recovers_constructed_solution():
    g = make_grid(16)
    A = poisson(g)
    rng = np.random.default_rng(7)
    x_star = rng.normal(size=g.num_interior)
    b = A(x_star)
    x = solve_spd(A, b, tol=1e-12)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def test_solve_residual_contract():
    g = make_grid(32)
    A = poisson(g)
    rng = np.random.default_rng(11)
    b = rng.normal(size=g.num_interior)
    x = solve_spd(A, b, tol=1e-10)
    assert np.linalg.norm(A(x) - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_deterministic():
    g = make_grid(16)
    A = poisson(g)
    rng = np.random.default_rng(5)
    b = rng.normal(size=g.num_interior)
    assert np.array_equal(solve_spd(A, b, tol=1e-11),
                          solve_spd(A, b, tol=1e-11))


def test_energy_error_monotone_along_iterates():
    # CG minimizes the operator-norm error over growing Krylov spaces, so
    # ||x_k - x*||_A must never increase (the residual itself is allowed
    # small oscillations and is not asserted)
    g = make_grid(24)
    A = poisson(g)
    rng = np.random.default_rng(2)
    b = rng.normal(size=g.num_interior)
    iterates = []
    x = solve_spd(A, b, tol=1e-12, callback=lambda xk: iterates.append(xk.copy()))
    energies = []
    for xk in iterates:
        e = xk - x
        energies.append(np.sqrt(max(e @ A(e), 0.0)))
    energies = np.array(energies[:-1])
    assert np.all(energies[1:] <= energies[:-1] * (1.0 + 1e-9) + 1e-14)


def cg_runs(A, b, tol):
    """solve_spd and the allocating reference on one system: both results
    and both callback counts; asserts that solve_spd left b unchanged."""
    kept = b.copy()
    steps, ref_steps = [], []
    x = solve_spd(A, b, tol=tol, callback=lambda xk: steps.append(None))
    assert np.array_equal(b, kept)
    ref = allocating_cg(A, b, tol=tol, callback=lambda xk: ref_steps.append(None))
    return x, ref, len(steps), len(ref_steps)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_in_place_cg_is_exact_on_newton_operator(n):
    # the in-place loop and its stop test sqrt(r @ r) make the same
    # operations in the same order as new arrays and norm(r) would
    g = make_grid(n)
    rng = np.random.default_rng(n)
    A = assemble(rng.uniform(-1.0, 2.0, g.num_interior), g)
    b = to_sine(rng.normal(size=g.num_interior), g)
    x, ref, steps, ref_steps = cg_runs(A, b, 1e-12)
    assert np.array_equal(x, ref)
    assert steps == ref_steps >= 2


def test_nested_solve_of_same_size_is_exact():
    # an operator or a callback that itself solves a system of the same
    # size gets work arrays of its own, so the outer solve matches one that
    # is not nested in another solve; the inner identity solve is exact.
    # The reference runs first, so its inner solves leave free work arrays
    # of this size behind for the nested run to take
    g = make_grid(16)
    rng = np.random.default_rng(8)
    A = assemble(rng.uniform(0.0, 2.0, g.num_interior), g)
    b = to_sine(rng.normal(size=g.num_interior), g)
    inner = []

    def nesting(y):
        return A(y) + solve_spd(lambda v: 2.0 * v, y)

    def solving_callback(xk):
        inner.append(solve_spd(lambda v: 2.0 * v, xk))

    ref = allocating_cg(nesting, b, tol=1e-12, callback=solving_callback)
    ref_inner = inner[:]
    inner.clear()
    assert np.array_equal(solve_spd(nesting, b, tol=1e-12, callback=solving_callback), ref)
    assert len(inner) == len(ref_inner) >= 2
    assert all(np.array_equal(p, q) for p, q in zip(inner, ref_inner))


def test_returned_solution_survives_next_solve():
    # x is a new array, not a work array, so a later solve of the same size
    # leaves it as it was
    g = make_grid(16)
    A = poisson(g)
    rng = np.random.default_rng(9)
    x = solve_spd(A, rng.normal(size=g.num_interior), tol=1e-12)
    kept = x.copy()
    solve_spd(A, rng.normal(size=g.num_interior), tol=1e-12)
    assert np.array_equal(x, kept)


def test_solve_rejects_bad_tol_and_shape():
    # a zero right-hand side returns before the operator is applied, so only
    # a nonzero one of the wrong length reaches the shape check
    g = make_grid(4)
    A = poisson(g)
    for tol in (0.0, float("nan")):
        with pytest.raises(ValueError):
            solve_spd(A, np.zeros(g.num_interior), tol=tol)
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(g.num_interior + 1))


def test_breakdown_on_indefinite_matrix():
    M = np.diag([1.0, -1.0])
    with pytest.raises(SolverError, match="breakdown"):
        solve_spd(lambda x: M @ x, np.array([1.0, 1.0]))


@pytest.mark.parametrize("scale", [1e300, np.nan], ids=["overflow", "nan"])
def test_breakdown_on_non_finite_curvature(scale):
    # an operator whose p @ A p overflows or is NaN stops CG at once,
    # not after its 10 * len(b) iterations
    b = np.full(100, 1e5)
    steps = []
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SolverError, match="breakdown"):
            solve_spd(lambda x: scale * x, b, callback=steps.append)
    assert len(steps) <= 2


def test_iteration_cap_error_carries_residual():
    # eigenvalues spanning 15 decades stall CG below the requested tolerance
    rng = np.random.default_rng(0)
    n = 60
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = Q @ np.diag(np.logspace(-15, 0, n)) @ Q.T
    M = 0.5 * (M + M.T)
    with pytest.raises(SolverError, match="did not reach") as info:
        solve_spd(lambda x: M @ x, rng.normal(size=n), tol=1e-15)
    assert np.isfinite(info.value.residual)

