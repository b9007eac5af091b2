import numpy as np
import pytest
import scipy.sparse as sp

from semidtn.geometry import make_grid
from semidtn.sparse_linalg import SolverError, assemble, solve_spd


def materialize(A, dim):
    """Dense matrix of an operator, one column per unit vector."""
    return np.column_stack([A(e) for e in np.eye(dim)])


def jacobi(diagonal):
    """Diagonal preconditioner, for tests that drive the CG loop itself."""
    return lambda r: r / diagonal


def poisson(g):
    """-Lap_h on interior nodes, and its Jacobi preconditioner (diagonal 4/h^2)."""
    return assemble(np.zeros(g.num_nodes), g), jacobi(4.0 / g.h ** 2)


def reference_operator(c, g):
    """-Lap_h + diag(c) on interior nodes, built from scratch as a Kronecker
    sum, in compressed-row storage with sorted column indices."""
    m = g.n - 1
    second = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    laplacian = (sp.kron(sp.identity(m), second) + sp.kron(second, sp.identity(m))) / g.h ** 2
    c_int = c.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1].ravel()
    return sp.csr_matrix(laplacian + sp.diags(c_int)).sorted_indices()


def test_assemble_poisson_diagonal():
    g = make_grid(4)
    M = materialize(assemble(np.zeros(g.num_nodes), g), 9)
    assert M.shape == (9, 9)
    assert np.allclose(np.diag(M), 64.0)


def test_assemble_reaction_shift():
    g = make_grid(4)
    M = materialize(assemble(np.ones(g.num_nodes), g), 9)
    assert np.allclose(np.diag(M), 65.0)


def test_assemble_matches_sparse_reference():
    # each operator applies the reaction term it was built with, whatever
    # was assembled after it, and sums each row in the order of a sorted
    # compressed-row product, so the two agree to the last bit
    g = make_grid(12)
    rng = np.random.default_rng(4)
    c1, c2 = rng.uniform(-2.0, 2.0, (2, g.num_nodes))
    A1 = assemble(c1, g)
    A2 = assemble(c2, g)
    for A, c in ((A1, c1), (A2, c2)):
        ref = reference_operator(c, g)
        for x in rng.normal(size=(3, g.num_interior)):
            assert np.array_equal(A(x), ref @ x)


def test_assemble_symmetry():
    g = make_grid(8)
    rng = np.random.default_rng(1)
    M = materialize(assemble(rng.uniform(0.0, 2.0, g.num_nodes), g), g.num_interior)
    assert np.array_equal(M, M.T)


def test_assemble_rejects_negative_reaction():
    # a negative reaction term is accepted while the stencil diagonal stays
    # positive (a Newton step's slope can be negative); beyond that, rejected
    g = make_grid(4)
    c = np.zeros(g.num_nodes)
    c[12] = -1.0  # interior node
    M = materialize(assemble(c, g), 9)
    assert M[4, 4] == pytest.approx(63.0)
    c[12] = -64.0  # diagonal 4/h^2 + c = 0
    with pytest.raises(SolverError):
        assemble(c, g)


def test_assemble_rejects_nonfinite():
    g = make_grid(4)
    c = np.zeros(g.num_nodes)
    c[12] = np.nan
    with pytest.raises(ValueError):
        assemble(c, g)


def test_weak_diagonal_dominance():
    g = make_grid(8)
    M = materialize(assemble(np.zeros(g.num_nodes), g), g.num_interior)
    off = np.sum(np.abs(M), axis=1) - np.abs(np.diag(M))
    assert np.all(off <= np.diag(M) + 1e-9)


def test_discrete_eigenvalue_oracle():
    # sin(pi x) sin(pi y) sampled on interior nodes is an exact eigenvector of
    # the 5-point operator; eigenvalue (8/h^2) sin^2(pi h/2), within 5% of 2 pi^2 at n=64
    g = make_grid(64)
    A = assemble(np.zeros(g.num_nodes), g)
    x, y = g.node_coords()
    v = (np.sin(np.pi * x) * np.sin(np.pi * y)).reshape(65, 65)[1:-1, 1:-1].ravel()
    rayleigh = (v @ A(v)) / (v @ v)
    lam_h = 8.0 / g.h ** 2 * np.sin(np.pi * g.h / 2.0) ** 2
    assert rayleigh == pytest.approx(lam_h, rel=1e-10)
    assert abs(lam_h - 2.0 * np.pi ** 2) <= 0.05 * 2.0 * np.pi ** 2


def test_solve_zero_rhs():
    g = make_grid(8)
    A, M_inv = poisson(g)
    assert np.array_equal(solve_spd(A, np.zeros(g.num_interior), M_inv),
                          np.zeros(g.num_interior))


def test_solve_recovers_constructed_solution():
    g = make_grid(16)
    A, M_inv = poisson(g)
    rng = np.random.default_rng(7)
    x_star = rng.normal(size=g.num_interior)
    b = A(x_star)
    x = solve_spd(A, b, M_inv, tol=1e-12)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def test_solve_residual_contract():
    g = make_grid(32)
    A, M_inv = poisson(g)
    rng = np.random.default_rng(11)
    b = rng.normal(size=g.num_interior)
    x = solve_spd(A, b, M_inv, tol=1e-10)
    assert np.linalg.norm(A(x) - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_deterministic():
    g = make_grid(16)
    A, M_inv = poisson(g)
    rng = np.random.default_rng(5)
    b = rng.normal(size=g.num_interior)
    assert np.array_equal(solve_spd(A, b, M_inv, tol=1e-11),
                          solve_spd(A, b, M_inv, tol=1e-11))


def test_energy_error_monotone_along_iterates():
    # CG minimizes the operator-norm error over growing Krylov spaces, so
    # ||x_k - x*||_A must never increase (the preconditioned residual itself
    # is allowed small oscillations and is not asserted)
    g = make_grid(24)
    A, M_inv = poisson(g)
    rng = np.random.default_rng(2)
    b = rng.normal(size=g.num_interior)
    iterates = []
    x = solve_spd(A, b, M_inv, tol=1e-12, callback=lambda xk: iterates.append(xk.copy()))
    energies = []
    for xk in iterates:
        e = xk - x
        energies.append(np.sqrt(max(e @ A(e), 0.0)))
    energies = np.array(energies[:-1])
    assert np.all(energies[1:] <= energies[:-1] * (1.0 + 1e-9) + 1e-14)


def test_solve_rejects_bad_tol_and_shape():
    # a zero right-hand side returns before the operator is applied, so only
    # a nonzero one of the wrong length reaches the shape check
    g = make_grid(4)
    A, M_inv = poisson(g)
    with pytest.raises(ValueError):
        solve_spd(A, np.zeros(g.num_interior), M_inv, tol=0.0)
    with pytest.raises(ValueError):
        solve_spd(A, np.ones(g.num_interior + 1), M_inv)


def test_breakdown_on_indefinite_matrix():
    M = np.diag([1.0, -1.0])
    with pytest.raises(SolverError):
        solve_spd(lambda x: M @ x, np.array([1.0, 1.0]), jacobi(np.diag(M)))


def test_iteration_cap_error_carries_residual():
    # eigenvalues spanning 15 decades stall CG below the requested tolerance
    rng = np.random.default_rng(0)
    n = 60
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = Q @ np.diag(np.logspace(-15, 0, n)) @ Q.T
    M = 0.5 * (M + M.T)
    with pytest.raises(SolverError) as info:
        solve_spd(lambda x: M @ x, rng.normal(size=n), jacobi(np.diag(M)), tol=1e-15)
    assert np.isfinite(info.value.residual)

