import numpy as np
import pytest
import scipy.sparse as sp

from semidtn.geometry import make_grid
from semidtn.sparse_linalg import SolverError, assemble, operator_from_dense, solve_spd


def jacobi(A):
    """Diagonal preconditioner, for tests that drive the CG loop itself."""
    return lambda r: r / A.diagonal()


def test_assemble_poisson_diagonal():
    g = make_grid(4)
    A = assemble(np.zeros(g.num_nodes), g)
    assert A.dim == 9
    assert np.allclose(A.diagonal(), 64.0)


def test_assemble_reaction_shift():
    g = make_grid(4)
    A = assemble(np.ones(g.num_nodes), g)
    assert np.allclose(A.diagonal(), 65.0)


def test_assemble_symmetry():
    g = make_grid(8)
    rng = np.random.default_rng(1)
    A = assemble(rng.uniform(0.0, 2.0, g.num_nodes), g)
    assert A.is_symmetric()


def test_cached_pattern_does_not_alias_operators():
    # assemble shares the five-point pattern between calls and writes only
    # the diagonal; an earlier operator must keep its own, and both must
    # equal a construction from scratch
    g = make_grid(12)
    m, inv_h2 = g.n - 1, 1.0 / g.h ** 2
    rng = np.random.default_rng(4)
    c1, c2 = rng.uniform(0.0, 2.0, (2, g.num_nodes))
    A1 = assemble(c1, g)
    A2 = assemble(c2, g)
    c1_int = c1.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1].ravel()
    assert np.array_equal(A1.diagonal(), 4.0 * inv_h2 + c1_int)
    second = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    laplacian = inv_h2 * (sp.kron(sp.identity(m), second) + sp.kron(second, sp.identity(m)))
    for A, c in ((A1, c1), (A2, c2)):
        c_int = c.reshape(g.n + 1, g.n + 1)[1:-1, 1:-1].ravel()
        fresh = sp.csr_matrix(laplacian + sp.diags(c_int))
        fresh.sort_indices()
        assert np.array_equal(A.indptr, fresh.indptr)
        assert np.array_equal(A.indices, fresh.indices)
        assert np.array_equal(A.data, fresh.data)


def test_assemble_rejects_negative_reaction():
    g = make_grid(4)
    c = np.zeros(g.num_nodes)
    c[12] = -1.0  # interior node
    with pytest.raises(ValueError):
        assemble(c, g)
    # the Newton path allows it as long as the diagonal stays positive
    assemble(c, g, allow_negative=True)


def test_assemble_rejects_nonfinite():
    g = make_grid(4)
    c = np.zeros(g.num_nodes)
    c[12] = np.nan
    with pytest.raises(ValueError):
        assemble(c, g)


def test_weak_diagonal_dominance():
    g = make_grid(8)
    A = assemble(np.zeros(g.num_nodes), g)
    for i in range(A.dim):
        row = slice(A.indptr[i], A.indptr[i + 1])
        off = sum(abs(v) for j, v in zip(A.indices[row], A.data[row]) if j != i)
        diag = next(v for j, v in zip(A.indices[row], A.data[row]) if j == i)
        assert off <= diag + 1e-9


def test_discrete_eigenvalue_oracle():
    # sin(pi x) sin(pi y) sampled on interior nodes is an exact eigenvector of
    # the 5-point operator; eigenvalue (8/h^2) sin^2(pi h/2), within 5% of 2 pi^2 at n=64
    g = make_grid(64)
    A = assemble(np.zeros(g.num_nodes), g)
    x, y = g.node_coords()
    v = (np.sin(np.pi * x) * np.sin(np.pi * y)).reshape(65, 65)[1:-1, 1:-1].ravel()
    rayleigh = (v @ A.matvec(v)) / (v @ v)
    lam_h = 8.0 / g.h ** 2 * np.sin(np.pi * g.h / 2.0) ** 2
    assert rayleigh == pytest.approx(lam_h, rel=1e-10)
    assert abs(lam_h - 2.0 * np.pi ** 2) <= 0.05 * 2.0 * np.pi ** 2


def test_solve_zero_rhs():
    g = make_grid(8)
    A = assemble(np.zeros(g.num_nodes), g)
    assert np.array_equal(solve_spd(A, np.zeros(A.dim), jacobi(A)), np.zeros(A.dim))


def test_solve_recovers_constructed_solution():
    g = make_grid(16)
    A = assemble(np.zeros(g.num_nodes), g)
    rng = np.random.default_rng(7)
    x_star = rng.normal(size=A.dim)
    b = A.matvec(x_star)
    x = solve_spd(A, b, jacobi(A), tol=1e-12)
    assert np.linalg.norm(x - x_star) / np.linalg.norm(x_star) <= 1e-9


def test_solve_residual_contract():
    g = make_grid(32)
    A = assemble(np.zeros(g.num_nodes), g)
    rng = np.random.default_rng(11)
    b = rng.normal(size=A.dim)
    x = solve_spd(A, b, jacobi(A), tol=1e-10)
    assert np.linalg.norm(A.matvec(x) - b) <= 1e-10 * np.linalg.norm(b)


def test_solve_deterministic():
    g = make_grid(16)
    A = assemble(np.zeros(g.num_nodes), g)
    rng = np.random.default_rng(5)
    b = rng.normal(size=A.dim)
    assert np.array_equal(solve_spd(A, b, jacobi(A), tol=1e-11),
                          solve_spd(A, b, jacobi(A), tol=1e-11))


def test_energy_error_monotone_along_iterates():
    # CG minimizes the operator-norm error over growing Krylov spaces, so
    # ||x_k - x*||_A must never increase (the preconditioned residual itself
    # is allowed small oscillations and is not asserted)
    g = make_grid(24)
    A = assemble(np.zeros(g.num_nodes), g)
    rng = np.random.default_rng(2)
    b = rng.normal(size=A.dim)
    iterates = []
    x = solve_spd(A, b, jacobi(A), tol=1e-12, callback=lambda xk: iterates.append(xk.copy()))
    energies = []
    for xk in iterates:
        e = xk - x
        energies.append(np.sqrt(max(e @ A.matvec(e), 0.0)))
    energies = np.array(energies[:-1])
    assert np.all(energies[1:] <= energies[:-1] * (1.0 + 1e-9) + 1e-14)


def test_solve_rejects_bad_tol_and_shape():
    g = make_grid(4)
    A = assemble(np.zeros(g.num_nodes), g)
    with pytest.raises(ValueError):
        solve_spd(A, np.zeros(A.dim), jacobi(A), tol=0.0)
    with pytest.raises(ValueError):
        solve_spd(A, np.zeros(A.dim + 1), jacobi(A))


def test_breakdown_on_indefinite_matrix():
    M = np.diag([1.0, -1.0])
    op = operator_from_dense(M)
    with pytest.raises(SolverError):
        solve_spd(op, np.array([1.0, 1.0]), jacobi(op))


def test_iteration_cap_error_carries_residual():
    # eigenvalues spanning 15 decades stall CG below the requested tolerance
    rng = np.random.default_rng(0)
    n = 60
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    M = Q @ np.diag(np.logspace(-15, 0, n)) @ Q.T
    op = operator_from_dense(0.5 * (M + M.T))
    with pytest.raises(SolverError) as info:
        solve_spd(op, rng.normal(size=n), jacobi(op), tol=1e-15)
    assert np.isfinite(info.value.residual)


def test_operator_from_dense_round_trip():
    M = np.array([[4.0, 1.0], [1.0, 3.0]])
    op = operator_from_dense(M)
    x = np.array([1.0, 2.0])
    assert np.allclose(op.matvec(x), M @ x)
    sol = solve_spd(op, np.array([1.0, 1.0]), jacobi(op), tol=1e-14)
    assert np.allclose(M @ sol, [1.0, 1.0])
