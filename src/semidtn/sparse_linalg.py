"""The discrete -Lap + c operator, applied matrix-free, and preconditioned CG.

Unknowns are the (n-1)^2 interior nodes only; Dirichlet boundary values are
eliminated into the right-hand side by the caller (see forward_solver), which
keeps the five-point operator symmetric, and positive definite for c >= 0.
It is applied by array slicing on the interior grid; no matrix is stored.
The caller supplies the CG preconditioner (forward_solver passes the direct
sine-basis Poisson solve).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .geometry import Grid2D

Operator = Callable[[np.ndarray], np.ndarray]


class SolverError(Exception):
    """Iterative solve failed (cap exceeded or breakdown)."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


def assemble(c: np.ndarray, grid: Grid2D) -> Operator:
    """The map x -> (-Lap_h + c) x on flat interior vectors.

    Diagonal 4/h^2 + c(node); -1/h^2 toward each interior neighbor (boundary
    couplings are the caller's Dirichlet lift). ``c`` is a full nodal field
    and may be negative, as a Newton step's slope can be, as long as the
    diagonal stays positive; otherwise SolverError.
    """
    n, h = grid.n, grid.h
    m = n - 1
    c = np.asarray(c, dtype=float)
    if c.shape != (grid.num_nodes,):
        raise ValueError(f"reaction coefficient has shape {c.shape}")
    c_int = c.reshape(n + 1, n + 1)[1:-1, 1:-1]
    if not np.all(np.isfinite(c_int)):
        raise ValueError("reaction coefficient contains non-finite values")
    diag = 4.0 / (h * h) + c_int
    if np.any(diag <= 0.0):
        raise SolverError("reaction term too negative: stencil diagonal not positive")
    off = -1.0 / (h * h)

    def apply(x: np.ndarray) -> np.ndarray:
        # each node sums its terms in the order of its row-major neighbors
        # (below, left, itself, right, above), so that the result rounds
        # like a sorted compressed-row product
        X = x.reshape(m, m)
        neighbor = off * X
        out = np.empty((m, m))
        out[0] = 0.0
        out[1:] = neighbor[:-1]
        out[:, 1:] += neighbor[:, :-1]
        out += diag * X
        out[:, :-1] += neighbor[:, 1:]
        out[:-1] += neighbor[1:]
        return out.ravel()

    return apply


def solve_spd(A: Operator, b: np.ndarray, precondition: Operator, tol: float = 1e-10,
              callback=None) -> np.ndarray:
    """Preconditioned conjugate gradient for a symmetric positive definite A.

    ``A(x)`` applies the operator and ``precondition(r)`` applies M^-1 for a
    symmetric positive definite M. Returns x with relative residual
    ||Ax - b|| / ||b|| <= tol, within 10 * len(b) iterations; b = 0 short
    circuits to x = 0. Deterministic for fixed inputs (fixed reduction
    order). ``callback(x_k)`` is invoked once per accepted iterate when given.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(b.size)

    x = np.zeros(b.size)
    r = b.copy()
    z = precondition(r)
    p = z.copy()
    rz = r @ z
    max_iter = 10 * b.size
    for _ in range(max_iter):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A(p)
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
    res = float(np.linalg.norm(A(x) - b) / norm_b)
    if res <= tol:
        return x
    raise SolverError(f"CG did not reach tol={tol} in {max_iter} iterations "
                      f"(relative residual {res:.3e})", residual=res)
