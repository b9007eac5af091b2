"""The sine-basis kernel of the five-point Laplacian, the Newton Jacobian
-Lap_h + c in scaled sine coordinates, and conjugate gradients.

Unknowns are the (n-1)^2 interior nodes only; Dirichlet boundary values are
eliminated into the right-hand side by the caller (see forward_solver). The
orthonormal sine matrix S diagonalizes -Lap_h on interior nodes, with
eigenvalues Lam (Buzbee, Golub & Nielsen 1970), so (-Lap_h)^-1 is a direct
solve. In the coordinates y = Lam^(1/2) o (S x S) the Jacobian becomes the
identity plus the reaction term, and CG with no preconditioner runs the
Poisson-preconditioned CG of Concus & Golub (1973) at one transform round
trip and no stencil per iteration. Only S and the eigenvalues are stored,
never the operator.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .geometry import Grid2D

Operator = Callable[[np.ndarray], np.ndarray]


class SolverError(Exception):
    """Iterative solve failed (cap exceeded or breakdown)."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


_sine_cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
# Free sets of CG work arrays (residual, search direction, step vector) by
# system size. A set is popped for one solve and appended back after it, so a
# solve nested inside another (an operator or callback that solves again)
# takes a set of its own.
_cg_work: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


def _sine_modes(grid: Grid2D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal sine basis S of the interior nodes (symmetric, S S = I),
    and Lam^-1 and Lam^(-1/2) for the eigenvalues Lam of -Lap_h in it, as
    (n-1, n-1) arrays; cached per grid size, read-only."""
    modes = _sine_cache.get(grid.n)
    if modes is None:
        n = grid.n
        k = np.arange(1, n)
        sine = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
        eig = (2.0 * np.sin(0.5 * np.pi * k / n) / grid.h) ** 2
        inverse = 1.0 / (eig[:, None] + eig[None, :])
        modes = (sine, inverse, np.sqrt(inverse))
        for a in modes:
            a.flags.writeable = False
        _sine_cache[n] = modes
    return modes


def to_sine(r: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Lam^(-1/2) o (S r S) for flat interior values r: the right-hand side
    of a Newton step in scaled sine coordinates."""
    sine, _, scale = _sine_modes(grid)
    m = grid.n - 1
    out = sine @ r.reshape(m, m) @ sine
    out *= scale
    return out.ravel()


def from_sine(y: np.ndarray, grid: Grid2D) -> np.ndarray:
    """S (Lam^(-1/2) o y) S: the interior values, (n-1, n-1), of scaled sine
    coordinates y; the inverse of ``to_sine``."""
    sine, _, scale = _sine_modes(grid)
    m = grid.n - 1
    return sine @ (scale * y.reshape(m, m)) @ sine


def assemble(c: np.ndarray, grid: Grid2D) -> Operator:
    """The Jacobian -Lap_h + diag(c) in scaled sine coordinates:
    y -> y + Lam^(-1/2) o S (c o S (Lam^(-1/2) o y) S) S on flat vectors.

    ``c`` holds the reaction coefficient on the (n-1)^2 interior nodes. It
    may be negative, as a Newton step's slope can be, as long as the
    five-point diagonal 4/h^2 + c stays positive; otherwise SolverError.
    Each application returns a new array; the operator keeps two (n-1)^2
    intermediates of its own, so one operator runs in one thread at a time.
    """
    m = grid.n - 1
    c = np.asarray(c, dtype=float)
    if c.shape not in ((m, m), (m * m,)):
        raise ValueError(f"reaction coefficient has shape {c.shape}")
    c = c.reshape(m, m)
    lo, hi = c.min(), c.max()  # a NaN anywhere makes both NaN
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("reaction coefficient contains non-finite values")
    # rounded addition is monotone, so the smallest c has the smallest diagonal
    if 4.0 / (grid.h * grid.h) + lo <= 0.0:
        raise SolverError("reaction term too negative: stencil diagonal not positive")
    sine, _, scale = _sine_modes(grid)
    # the operator's own intermediates, overwritten by every application;
    # each product passes its output positionally, which costs less per call
    # than the out= keyword on the small grids
    front, back = np.empty((m, m)), np.empty((m, m))

    def apply(y: np.ndarray) -> np.ndarray:
        y = y.reshape(m, m)
        np.multiply(scale, y, front)
        np.matmul(sine, front, back)
        np.matmul(back, sine, front)
        np.multiply(front, c, front)
        np.matmul(sine, front, back)
        w = back @ sine
        w *= scale
        w += y
        return w.ravel()

    return apply


def solve_spd(A: Operator, b: np.ndarray, tol: float = 1e-10, callback=None) -> np.ndarray:
    """Conjugate gradient for a symmetric positive definite A.

    ``A(x)`` applies the operator. Returns x with relative residual
    ||Ax - b|| / ||b|| <= tol, within 10 * len(b) iterations; b = 0 short
    circuits to x = 0; b itself is left unchanged. Deterministic for fixed
    inputs (fixed reduction order). The iterate and residual are updated in
    place, so ``callback(x_k)``, invoked once per accepted iterate when
    given, sees the live iterate: copy it to keep it. The returned x is a
    new array; the residual, search direction and step vector are work
    arrays held for this solve only, and a nested solve gets its own.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(b.size)

    x = np.zeros(b.size)
    free = _cg_work.setdefault(b.size, [])
    work = r, p, step = free.pop() if free else tuple(np.empty(b.size) for _ in range(3))
    try:
        np.copyto(r, b)
        np.copyto(p, r)
        rr = r @ r
        max_iter = 10 * b.size
        for _ in range(max_iter):
            if np.sqrt(rr) <= tol * norm_b:  # the root of r @ r is norm(r) exactly
                return x
            Ap = A(p)
            pAp = p @ Ap
            if pAp <= 0.0:
                raise SolverError("CG breakdown: operator not positive definite",
                                  residual=float(np.linalg.norm(r) / norm_b))
            alpha = rr / pAp
            x += np.multiply(alpha, p, out=step)
            r -= np.multiply(alpha, Ap, out=step)
            rr_new = r @ r
            p *= rr_new / rr
            p += r
            rr = rr_new
            if callback is not None:
                callback(x)
    finally:
        free.append(work)
    res = float(np.linalg.norm(A(x) - b) / norm_b)
    if res <= tol:
        return x
    raise SolverError(f"CG did not reach tol={tol} in {max_iter} iterations "
                      f"(relative residual {res:.3e})", residual=res)
