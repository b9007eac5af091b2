"""Dirichlet solvers: the linear problem -Lap v = g and the semilinear
problem -Lap u + V(x,u) = 0 via Newton iteration.

One direct kernel carries every linear solve: the orthonormal sine basis
diagonalizes the five-point Laplacian on interior nodes (Buzbee, Golub &
Nielsen 1970), so linear problems (harmonic extensions, zero-boundary Poisson
solves) are exact to rounding. A boundary trace enters only the four edge
strips of the right-hand side, so its transform is a rank-4 product. Each
Newton step solves with the Jacobian -Lap + dV/dz(x, u) in scaled sine
coordinates (sparse_linalg.assemble) by unpreconditioned CG, which is the
Poisson-preconditioned CG of Concus & Golub (1973) at one transform round
trip per iteration; under the smallness gate the reaction term is a small
perturbation of -Lap and CG converges in a few iterations.

The nonlinear solve enforces a smallness gate on the boundary data
(max-norm radius 0.1) under which Newton, started from the harmonic
extension of the data, stays in its quadratic basin for unit-size
coefficient fields.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid2D, check_field, check_trace, trace_to_field
from .potential import PotentialSeries
from .sparse_linalg import SolverError, _sine_modes, assemble, from_sine, solve_spd, to_sine

DEFAULT_SMALLNESS_RADIUS = 0.1
DEFAULT_NEWTON_TOL = 1e-11
DEFAULT_MAX_NEWTON = 25
# Relative residual tolerance of the Newton step's CG, in sine coordinates.
# Polarized divided differences need a direction's four measurements solved
# alike, so it stays tight: at 1e-9 they stop after different CG counts (2
# against 3), and on the n=32 full-arc K=4 heads the worst polarized-flux gap
# to the cascade grew from 2.3e-3 to 8.4e-3 at m=4 and from 4.9e-11 to
# 1.1e-9 at m=2, past the bounds of 5e-3 and 1e-9 that the tests hold.
LINEAR_TOL = 1e-12
# Free sets of Newton work arrays by grid size (the stencil's rows, two
# residuals, each evaluating its Horner polynomial in place, and the
# Jacobian's slope field), taken for one solve as sparse_linalg takes CG's.
_newton_work: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]] = {}


class SmallnessError(ValueError):
    """Boundary data exceeds the well-posedness radius."""


class NewtonError(SolverError):
    """Newton iteration failed to converge."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float   # discrete L2 norm of -Lap u + V(x,u) on interior nodes
    boundary_norm: float    # max-norm of the Dirichlet data
    solution_norm: float    # max-norm of the computed solution
    converged: bool
    residual_history: tuple[float, ...] = ()  # per-iterate residual norms, initial first


def _with_interior(boundary_field: np.ndarray, interior: np.ndarray, grid: Grid2D) -> np.ndarray:
    out = boundary_field.copy().reshape(grid.n + 1, grid.n + 1)
    out[1:-1, 1:-1] = interior.reshape(grid.n - 1, grid.n - 1)
    return out.ravel()


def _stencil_rows(u: np.ndarray, grid: Grid2D, rows: np.ndarray) -> np.ndarray:
    """(-Lap_h u) over whole rows 1..n-1 into ``rows``, (n-1)(n+1) values;
    returns its (n-1, n-1) interior view.

    The stencil runs over the rows as flat contiguous slices, subtracting
    the neighbours below, above, left and right in that order; the two
    boundary columns, which read across row ends, are left out of the view."""
    row = grid.n + 1
    u = u.reshape(row * row)
    end = grid.n * row
    np.multiply(4.0, u[row:end], out=rows)
    rows -= u[:end - row]
    rows -= u[2 * row:end + row]
    rows -= u[row - 1:end - 1]
    rows -= u[row + 1:end + 1]
    rows /= grid.h * grid.h
    return rows.reshape(grid.n - 1, row)[:, 1:-1]


def stencil_laplacian(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """(-Lap_h u) on interior nodes, using all stored node values."""
    return _stencil_rows(u, grid, np.empty((grid.n - 1) * (grid.n + 1))).ravel()


def _residual_into(P: PotentialSeries, u: np.ndarray, grid: Grid2D, rows: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """-Lap u + V(x,u) on interior nodes into the flat (n-1)^2 array ``out``,
    with ``rows`` as the stencil's work array; returns ``out``. V goes into
    ``out`` first and the stencil is added to it (addition commutes)."""
    m = grid.n - 1
    field = out.reshape(m, m)
    P.interior_value(u.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1], field)
    field += _stencil_rows(u, grid, rows)
    return out


def semilinear_residual(P: PotentialSeries, u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Interior residual field of -Lap u + V(x,u)."""
    m = grid.n - 1
    return _residual_into(P, u, grid, np.empty(m * (grid.n + 1)), np.empty(m * m))


def _l2(r: np.ndarray, grid: Grid2D) -> float:
    """h ||r|| for flat r; the root of r @ r is np.linalg.norm(r) exactly."""
    return grid.h * math.sqrt(r @ r)


@functools.cache
def _lift_parts(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat node indices of the bottom, top, left and right sides' interior
    nodes of an n-cell grid as the columns of an (n-1, 4) array, and the
    first and last columns of S as one (n-1, 2) array; built once per size,
    read-only."""
    k = np.arange(1, n)
    index = np.stack([k, n * (n + 1) + k, k * (n + 1), k * (n + 1) + n], axis=1)
    parts = (index, _sine_modes(n)[0][:, [0, -1]])
    for a in parts:
        a.flags.writeable = False
    return parts


def _lift_transform(u2: np.ndarray, grid: Grid2D) -> np.ndarray:
    """S B S for the right-hand side B that the boundary values of the
    (n+1, n+1) field u2 give the interior equations: each edge strip of B
    holds its side's values over h^2, so with s_0, s_last the first and last
    columns of S, S B S = s_0 (S b)^T + s_last (S t)^T + (S l) s_0^T
    + (S r) s_last^T for the bottom, top, left and right sides b, t, l, r."""
    index, edges = _lift_parts(grid.n)
    strips = u2.take(index)
    strips /= grid.h * grid.h
    hat = _sine_modes(grid.n)[0] @ strips
    return edges @ hat[:, :2].T + hat[:, 2:] @ edges.T


def solve_linear(g: np.ndarray | None, f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Solve -Lap v = g with v = f on the boundary, directly.

    ``g`` may be None for zero; only its interior values count. The boundary
    trace is lifted into the right-hand side, whose sine transform is a
    rank-4 product (skipped for a zero trace), and the interior solved with
    the sine-basis kernel.
    Returns the full nodal field; boundary nodes carry f exactly.
    """
    sine, inverse, _ = _sine_modes(grid.n)
    v = trace_to_field(f, grid)
    v2 = v.reshape(grid.n + 1, grid.n + 1)
    if g is None:
        hat = _lift_transform(v2, grid)
    else:
        hat = sine @ check_field(g, grid).reshape(v2.shape)[1:-1, 1:-1] @ sine
        if f.any():  # a zero trace lifts nothing: transform only the source
            hat += _lift_transform(v2, grid)
    hat *= inverse
    v2[1:-1, 1:-1] = sine @ hat @ sine
    return v


def harmonic_extension(f: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Discrete harmonic field with boundary trace f."""
    return solve_linear(None, f, grid)


def solve_semilinear(P: PotentialSeries, f: np.ndarray,
                     grid: Grid2D) -> tuple[np.ndarray, SolveReport]:
    """Newton solve of -Lap u + V(x,u) = 0, u = f on the boundary.

    Starts from the harmonic extension of f (the exact first linearization,
    so the first correction is already quadratically small). Each step
    solves the Jacobian system in scaled sine coordinates, so its CG stops
    when the (-Lap_h)^-1-norm of the step residual falls to LINEAR_TOL times
    that of the Newton residual. Newton stops at residual DEFAULT_NEWTON_TOL;
    diverging residuals (3 consecutive increases) or DEFAULT_MAX_NEWTON steps
    raise NewtonError, and data whose max-norm exceeds
    DEFAULT_SMALLNESS_RADIUS raises SmallnessError. The three constants are
    read at call time.
    """
    f = check_trace(f, grid)
    fnorm = float(np.abs(f).max()) if f.size else 0.0
    if fnorm > DEFAULT_SMALLNESS_RADIUS:
        raise SmallnessError(f"boundary data max-norm {fnorm:.4g} exceeds smallness "
                             f"radius {DEFAULT_SMALLNESS_RADIUS}")

    u = harmonic_extension(f, grid)
    inner = u.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1]  # a view: steps update u
    m = grid.n - 1
    free = _newton_work.setdefault(grid.n, [])
    work = rows, res, new_res, slope = (
        free.pop() if free else
        (np.empty(m * (grid.n + 1)), np.empty(m * m), np.empty(m * m), np.empty((m, m))))
    try:
        res_norm = _l2(_residual_into(P, u, grid, rows, res), grid)
        history = [res_norm]
        increases = 0
        for it in range(DEFAULT_MAX_NEWTON):
            if res_norm <= DEFAULT_NEWTON_TOL:
                return u, SolveReport(it, res_norm, fnorm, float(np.abs(u).max()), True,
                                      tuple(history))
            A = assemble(P.interior_slope(inner, slope), grid)
            inner -= from_sine(solve_spd(A, to_sine(res, grid), tol=LINEAR_TOL), grid)
            new_norm = _l2(_residual_into(P, u, grid, rows, new_res), grid)
            history.append(new_norm)
            increases = increases + 1 if new_norm > res_norm else 0
            if increases >= 3:
                raise NewtonError(f"Newton diverging: residual rose 3 times, "
                                  f"now {new_norm:.3e}", residual=new_norm)
            res, new_res, res_norm = new_res, res, new_norm
    finally:
        free.append(work)
    if res_norm <= DEFAULT_NEWTON_TOL:
        return u, SolveReport(DEFAULT_MAX_NEWTON, res_norm, fnorm, float(np.abs(u).max()),
                              True, tuple(history))
    raise NewtonError(f"Newton did not reach {DEFAULT_NEWTON_TOL} in {DEFAULT_MAX_NEWTON} "
                      f"iterations (residual {res_norm:.3e})", residual=res_norm)


def newton_jacobian_check(P: PotentialSeries, u: np.ndarray, grid: Grid2D,
                          relative: bool = False, n_directions: int = 10,
                          tau: float = 1e-4, seed: int = 0) -> float:
    """Certify the analytic Jacobian -Lap + dV/dz against finite differences.

    Default mode returns the worst Taylor-remainder curvature
    max ||R(u + tau d) - R(u) - tau J d||_inf / tau^2 over unit max-norm
    interior directions d (bounded by half the second z-derivative of V).
    ``relative`` instead returns the worst relative gap between the
    divided difference (R(u + tau d) - R(u)) / tau and J d.
    """
    u = check_field(u, grid)
    rng = np.random.default_rng(seed)
    res0 = semilinear_residual(P, u, grid)
    slope = P.interior_slope(u.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1]).ravel()
    worst = 0.0
    for _ in range(n_directions):
        d_int = rng.uniform(-1.0, 1.0, grid.num_interior)
        d_int /= np.max(np.abs(d_int))
        d_field = _with_interior(np.zeros(grid.num_nodes), d_int, grid)
        jd = stencil_laplacian(d_field, grid) + slope * d_int
        res1 = semilinear_residual(P, u + tau * d_field, grid)
        if relative:
            gap = np.max(np.abs((res1 - res0) / tau - jd)) / max(np.max(np.abs(jd)), 1e-300)
        else:
            gap = np.max(np.abs(res1 - res0 - tau * jd)) / (tau * tau)
        worst = max(worst, float(gap))
    return worst
