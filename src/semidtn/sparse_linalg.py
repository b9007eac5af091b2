"""CSR storage and preconditioned CG for the discrete -Lap + c operator.

Unknowns are the (n-1)^2 interior nodes only; Dirichlet boundary values are
eliminated into the right-hand side by the caller (see forward_solver), which
keeps the operator symmetric positive definite for c >= 0. The five-point
pattern is built once per grid size; each assembly writes only the diagonal.
The caller supplies the CG preconditioner (forward_solver passes the direct
sine-basis Poisson solve).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .geometry import Grid2D


class SolverError(Exception):
    """Iterative solve failed (cap exceeded or breakdown)."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SparseOperator:
    """Symmetric positive definite operator in compressed-row storage."""

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _csr: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.data):
            arr.flags.writeable = False
        csr = sp.csr_matrix((self.data, self.indices, self.indptr),
                            shape=(self.dim, self.dim))
        object.__setattr__(self, "_csr", csr)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._csr @ x

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def is_symmetric(self, tol: float = 0.0) -> bool:
        """Test utility: every stored (i, j, v) has a matching (j, i, v)."""
        d = self._csr - self._csr.T
        return bool(abs(d).max() <= tol) if d.nnz else True


_pattern_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}


def _stencil_pattern(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """CSR indptr, indices and data of the c = 0 five-point operator, and the
    positions of its diagonal in data; built once per grid size, read-only."""
    pattern = _pattern_cache.get(grid.n)
    if pattern is None:
        m = grid.n - 1
        inv_h2 = 1.0 / (grid.h * grid.h)
        iy, ix = np.divmod(np.arange(m * m), m)
        rows = [np.arange(m * m)]
        cols = [np.arange(m * m)]
        vals = [np.full(m * m, 4.0 * inv_h2)]
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            keep = (0 <= ix + dx) & (ix + dx < m) & (0 <= iy + dy) & (iy + dy < m)
            rows.append(np.arange(m * m)[keep])
            cols.append((iy[keep] + dy) * m + (ix[keep] + dx))
            vals.append(np.full(keep.sum(), -inv_h2))
        csr = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                            shape=(m * m, m * m)).tocsr()
        csr.sort_indices()
        row_of = np.repeat(np.arange(m * m), np.diff(csr.indptr))
        pattern = (csr.indptr, csr.indices, csr.data, np.flatnonzero(csr.indices == row_of))
        for arr in pattern:
            arr.flags.writeable = False
        _pattern_cache[grid.n] = pattern
    return pattern


def assemble(c: np.ndarray, grid: Grid2D, allow_negative: bool = False) -> SparseOperator:
    """Five-point stencil for -Lap + c on interior nodes.

    Diagonal 4/h^2 + c(node); off-diagonal -1/h^2 toward interior neighbors
    (boundary couplings are the caller's Dirichlet lift). With
    ``allow_negative`` the gate relaxes from c >= 0 to a positive diagonal,
    which is what a Newton step with a slightly negative reaction term needs.
    """
    n, h = grid.n, grid.h
    m = n - 1
    c = np.asarray(c, dtype=float)
    if c.shape == (grid.num_nodes,):
        c_int = c.reshape(n + 1, n + 1)[1:-1, 1:-1].ravel()
    elif c.shape == (m * m,):
        c_int = c
    else:
        raise ValueError(f"reaction coefficient has shape {c.shape}")
    if not np.all(np.isfinite(c_int)):
        raise ValueError("reaction coefficient contains non-finite values")

    diag = 4.0 / (h * h) + c_int
    if allow_negative:
        if np.any(diag <= 0.0):
            raise SolverError("reaction term too negative: stencil diagonal not positive")
    elif np.any(c_int < 0.0):
        raise ValueError("reaction coefficient must be >= 0 (use allow_negative for Newton steps)")

    indptr, indices, stencil, diag_pos = _stencil_pattern(grid)
    data = stencil.copy()
    data[diag_pos] = diag
    return SparseOperator(m * m, indptr, indices, data)


def solve_spd(A: SparseOperator, b: np.ndarray, precondition, tol: float = 1e-10,
              callback=None) -> np.ndarray:
    """Preconditioned conjugate gradient.

    ``precondition(r)`` applies M^-1 for a symmetric positive definite M.
    Returns x with relative residual ||Ax - b|| / ||b|| <= tol; b = 0 short
    circuits to x = 0. Deterministic for fixed inputs (fixed reduction order).
    ``callback(x_k)`` is invoked once per accepted iterate when given.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    if b.shape != (A.dim,):
        raise ValueError(f"rhs length {b.shape} does not match operator dim {A.dim}")
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(A.dim)

    x = np.zeros(A.dim)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    max_iter = 10 * A.dim
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A.matvec(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise SolverError("CG breakdown: operator not positive definite",
                              residual=float(np.linalg.norm(r) / norm_b))
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        z = precondition(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        if callback is not None:
            callback(x)
    res = float(np.linalg.norm(A.matvec(x) - b) / norm_b)
    if res <= tol:
        return x
    raise SolverError(f"CG did not reach tol={tol} in {max_iter} iterations "
                      f"(relative residual {res:.3e})", residual=res)


def operator_from_dense(M: np.ndarray, drop_tol: float = 0.0) -> SparseOperator:
    """Wrap a small dense SPD matrix in CSR form (normal-equation solves)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    csr = sp.csr_matrix(np.where(np.abs(M) > drop_tol, M, 0.0))
    csr.sort_indices()
    return SparseOperator(M.shape[0], csr.indptr, csr.indices, csr.data)
