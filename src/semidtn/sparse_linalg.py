"""The sine-basis kernel of the five-point Laplacian, the Newton Jacobian
-Lap_h + c in scaled sine coordinates, and conjugate gradients.

Unknowns are the (n-1)^2 interior nodes only; Dirichlet boundary values are
eliminated into the right-hand side by the caller (see forward_solver). The
orthonormal sine matrix S diagonalizes -Lap_h on interior nodes, with
eigenvalues Lam (Buzbee, Golub & Nielsen 1970), so (-Lap_h)^-1 is a direct
solve. In the coordinates y = Lam^(1/2) o (S x S) the Jacobian becomes the
identity plus the reaction term, and CG with no preconditioner runs the
Poisson-preconditioned CG of Concus & Golub (1973) at one transform round
trip and no stencil per iteration. Only S, the eigenvalues and one
transform kernel per grid size are stored, never the operator.

``assemble`` also bounds ||J - I|| by max|c| / lam_min. Told that bound, CG
stops as soon as the Richardson step x + r certifiably meets its tolerance
(Simoncini & Szyld 2003): after two iterations on a Newton step's system.

The Newton step's kernel makes the two dense products with S below
FOLD_MIN_N and folds them by mode parity from there up: sine mode k is even
about the grid's midpoint for odd k and odd for even k, so each product with
S splits into two quarter-size products on the folded sums and differences
of node rows (the even/odd reduction of Buzbee, Golub & Nielsen). Its sine
coordinates are then in odd-then-even mode order, a private order that only
``to_sine``, ``assemble`` and the Newton step's closing transform read.
"""

from __future__ import annotations

import functools
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


# Smallest grid size whose Newton step transforms folded (_Fold), at the
# measured crossover. One 2-D transform, dense against folded forward /
# inverse, one BLAS thread on 2 cores: n=64 27 against 38 / 37 us, n=80 41
# against 70 / 67, n=96 88 against 101 / 91, n=100 90 against 105 / 99, n=104
# 143 against 106 / 109, n=128 252 against 184 / 163, n=256 1742 against
# 1033 / 871.
FOLD_MIN_N = 104

# Free sets of CG work arrays (residual, search direction, step vector) by
# system size. A set is popped for one solve and appended back after it, so a
# solve nested inside another (an operator or callback that solves again)
# takes a set of its own.
_cg_work: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray]]] = {}


@functools.cache
def _sine_modes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal sine basis S of the interior nodes of an n-cell grid
    (symmetric, S S = I), and Lam^-1 and Lam^(-1/2) for the eigenvalues Lam
    of -Lap_h in it, as (n-1, n-1) arrays; built once per size, read-only."""
    k, h = np.arange(1, n), 1.0 / n  # h as Grid2D has it
    sine = np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(k, k) / n)
    eig = (2.0 * np.sin(0.5 * np.pi * k / n) / h) ** 2
    inverse = 1.0 / (eig[:, None] + eig[None, :])
    modes = (sine, inverse, np.sqrt(inverse))
    for a in modes:
        a.flags.writeable = False
    return modes


class _Dense:
    """S X S on one grid size by two dense products, modes in the order
    k = 1..n-1, and ``scale`` Lam^(-1/2) in it. ``inverse`` is ``forward``,
    as S S = I. S X lands in the kernel's own work array, shared like
    _Fold's, so the transforms run in one thread at a time."""

    __slots__ = ("sine", "scale", "_mid")

    def __init__(self, n: int):
        self.sine, _, self.scale = _sine_modes(n)
        self._mid = np.empty((n - 1, n - 1))

    def forward(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        np.matmul(self.sine, x, self._mid)
        np.matmul(self._mid, self.sine, out)
        return out

    inverse = forward


class _Fold:
    """S X S and S Y S on one grid size by the even/odd reduction, with
    modes in odd-then-even order.

    Node rows j and n - j fold into their sum, read by the odd modes, and
    their difference, read by the even ones; for even n the middle row
    n / 2 joins the sums alone, as no even mode reads it. ``odd`` and
    ``even`` are the two halves of S on the folded rows, and ``scale`` is
    Lam^(-1/2) in the folded mode order. Only whole contiguous rows are ever
    added: each 2-D transform folds rows, writes the two half products,
    transposed, into the column blocks of a work array, and folds that
    array's rows again. The two work arrays are the kernel's own, shared by
    every caller on this grid size, so the transforms run in one thread at
    a time.
    """

    __slots__ = ("odd", "even", "scale", "_rows", "_mid")

    def __init__(self, n: int):
        sine, _, scale = _sine_modes(n)
        m, half = n - 1, n // 2  # half: the odd modes and folded rows
        order = np.r_[0:m:2, 1:m:2]  # mode k at index k - 1
        self.odd = sine[0::2, :half].copy()
        self.even = sine[1::2, :m - half].copy()
        self.scale = scale[np.ix_(order, order)]
        for a in (self.odd, self.even, self.scale):
            a.flags.writeable = False
        self._rows, self._mid = np.empty((m, m)), np.empty((m, m))

    def _fold(self, x: np.ndarray, out: np.ndarray) -> None:
        """Row sums of x into out's first rows, differences into the rest."""
        pairs, half = len(self.even), len(self.odd)
        top, bottom = x[:pairs], x[:-pairs - 1:-1]
        np.add(top, bottom, out[:pairs])
        if half > pairs:
            out[pairs] = x[pairs]
        np.subtract(top, bottom, out[half:])

    def _unfold(self, a: np.ndarray, out: np.ndarray) -> None:
        """Node rows from a's odd-mode rows (first) and even-mode rows."""
        pairs, half = len(self.even), len(self.odd)
        np.add(a[:pairs], a[half:], out[:pairs])
        np.subtract(a[:pairs], a[half:], out[:-pairs - 1:-1])
        if half > pairs:
            out[pairs] = a[pairs]

    def forward(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """S x S of (n-1, n-1) node values x into ``out``, folded order."""
        half, rows, mid = len(self.odd), self._rows, self._mid
        self._fold(x, rows)
        np.matmul(rows[:half].T, self.odd.T, mid[:, :half])
        np.matmul(rows[half:].T, self.even.T, mid[:, half:])
        self._fold(mid, rows)
        np.matmul(rows[:half].T, self.odd.T, out[:, :half])
        np.matmul(rows[half:].T, self.even.T, out[:, half:])
        return out

    def inverse(self, y: np.ndarray, out: np.ndarray) -> np.ndarray:
        """S y S of (n-1, n-1) folded-order modes y into ``out``, node values."""
        half, rows, mid = len(self.odd), self._rows, self._mid
        np.matmul(self.odd.T, y[:, :half].T, rows[:half])
        np.matmul(self.even.T, y[:, half:].T, rows[half:])
        self._unfold(rows, mid)
        np.matmul(self.odd.T, mid[:, :half].T, rows[:half])
        np.matmul(self.even.T, mid[:, half:].T, rows[half:])
        self._unfold(rows, out)
        return out


@functools.cache
def _kernel(n: int) -> _Dense | _Fold:
    """The Newton step's transform kernel of an n-cell grid: folded from
    FOLD_MIN_N up, dense below; built once per size."""
    return _Fold(n) if n >= FOLD_MIN_N else _Dense(n)


def to_sine(r: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Lam^(-1/2) o (S r S) for flat interior values r: the right-hand side
    of a Newton step in scaled sine coordinates, flat, with modes in
    odd-then-even order from FOLD_MIN_N up."""
    m = grid.n - 1
    kernel = _kernel(grid.n)
    out = kernel.forward(r.reshape(m, m), np.empty((m, m)))
    out *= kernel.scale
    return out.ravel()


def assemble(c: np.ndarray, grid: Grid2D) -> tuple[Operator, float]:
    """The pair (J, beta) of the Jacobian J = -Lap_h + diag(c) in scaled
    sine coordinates, y -> y + Lam^(-1/2) o S (c o S (Lam^(-1/2) o y) S) S on
    flat vectors, and beta = max|c| max(Lam^(-1/2))^2 >= ||J - I||_2.

    ``c`` holds the reaction coefficient on the (n-1)^2 interior nodes. It
    may be negative, as a Newton step's slope can be, as long as the
    five-point diagonal 4/h^2 + c stays positive; otherwise SolverError.
    Each application of J returns a new flat array. The products with S run
    through the grid's transform kernel, so J reads and returns modes in
    ``to_sine``'s order; it keeps two (n-1)^2 intermediates of its own and
    shares the kernel's work arrays, so it runs in one thread at a time.
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
    # the operator's own intermediates, overwritten by every application:
    # the scaled modes, which then take c times the node values; positional
    # outputs and methods bound once cost less per call than the out=
    # keyword and attribute lookups on the small grids
    front, nodes = np.empty((m, m)), np.empty((m, m))
    kernel = _kernel(grid.n)
    scale, forward, inverse = kernel.scale, kernel.forward, kernel.inverse

    def apply(y: np.ndarray) -> np.ndarray:
        y = y.reshape(m, m)
        np.multiply(scale, y, front)
        inverse(front, nodes)
        np.multiply(nodes, c, front)
        w = forward(front, np.empty((m, m)))
        w *= scale
        w += y
        return w.ravel()

    # Lam^(-1/2) peaks at mode (1, 1), first in either kernel's order
    return apply, float(max(-lo, hi) * scale[0, 0] ** 2)


def solve_spd(A: Operator, b: np.ndarray, tol: float = 1e-10, callback=None, *,
              bound: float | None = None) -> np.ndarray:
    """Conjugate gradient for a symmetric positive definite A and flat b.

    Stops when the recursive residual r_k = b - A x_k, updated in place,
    has ||r_k|| <= tol ||b||, or, given ``bound`` beta >= ||A - I||_2, once
    beta ||r_k|| <= tol ||b||: it then returns x_k + r_k, whose residual
    -(A - I) r_k meets tol up to the recursive residual's drift (a bound of
    1 or more never gets there first). Raises SolverError, carrying the
    recursive relative residual, after 10 * len(b) iterations, or at the
    first curvature p.Ap that is not positive and finite (an overflowing or
    NaN operator). An x = 0 that meets tol (b = 0, or tol >= 1) returns at
    once; b is left unchanged. Deterministic for fixed inputs (fixed
    reduction order). ``callback(x_k)``, invoked once per application of A
    when given, sees the live iterate: copy it to keep it. The returned
    array is new; the residual, search direction and step vector are work
    arrays held for this solve only, and a nested solve gets its own.
    """
    if not tol > 0.0:  # NaN too
        raise ValueError("tol must be positive")
    if bound is not None and not bound >= 0.0:
        raise ValueError("bound must be non-negative")
    b = np.asarray(b, dtype=float)
    # each norm is the root of a dot product, which is np.linalg.norm exactly
    norm_b = math.sqrt(b @ b)
    stop = tol * norm_b
    reach = math.inf if bound is None else bound
    x = np.zeros(b.size)
    if norm_b <= stop:
        return x

    free = _cg_work.setdefault(b.size, [])
    work = r, p, step = free.pop() if free else tuple(np.empty(b.size) for _ in range(3))
    try:
        np.copyto(r, b)
        np.copyto(p, r)
        rr = r @ r
        max_iter = 10 * b.size
        # an overflowing operator reaches the curvature test as inf or NaN,
        # which raises SolverError; numpy's warnings on the way would only
        # print that error's cause ahead of it
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_iter):
                Ap = A(p)
                pAp = p @ Ap
                if not 0.0 < pAp < math.inf:  # NaN too
                    raise SolverError(f"CG breakdown: curvature p.Ap = {pAp:.3e} is not positive "
                                      "and finite", residual=math.sqrt(rr) / norm_b)
                alpha = rr / pAp
                x += np.multiply(alpha, p, out=step)
                r -= np.multiply(alpha, Ap, out=step)
                rr_new = r @ r
                if callback is not None:
                    callback(x)
                # tested before the search direction is updated, which a
                # converged solve no longer needs
                norm_r = math.sqrt(rr_new)
                if norm_r <= stop:
                    return x
                if reach * norm_r <= stop:
                    return np.add(x, r, out=x)
                p *= rr_new / rr
                p += r
                rr = rr_new
    finally:
        free.append(work)
    res = math.sqrt(rr) / norm_b
    raise SolverError(f"CG did not reach tol={tol} in {max_iter} iterations "
                      f"(relative residual {res:.3e})", residual=res)
