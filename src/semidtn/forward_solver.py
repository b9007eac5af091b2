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
perturbation of -Lap, whose bound lets CG stop after two iterations with a
certified Richardson finish. A step makes one forward transform, one round
trip per CG iteration and one closing inverse transform to node values: six
at two iterations. The residual's and the slope's Horner polynomials read a
contiguous copy of the interior values.

The nonlinear solve enforces a smallness gate on the boundary data
(max-norm radius 0.1) under which Newton, started from the harmonic
extension of the data, stays in its quadratic basin for unit-size
coefficient fields. Negating or doubling the linear start's input does the
same to every value it rounds, so a solve reuses a start on its grid for data
c = +-1 or +-2 times that start's, bit for bit, and c times its stencil with
it. Doubling rounds alike only outside the subnormal range: at |c| = 2 a trace
with a nonzero value below DOUBLING_FLOOR is not reused, and the stencil is
reused only where h^2 is a power of two, so that its division by h^2 is exact,
and is run again on c times the field elsewhere. One per-size state
(``_newton_state``) holds the Newton work arrays and a ring of the last
2^(MAX_ORDER-1) = 8 starts, read newest first: a direction's four
measurements take the data t g for t = 1, -1, 2, -2 and hit the newest entry,
and a product-order divided difference of m <= MAX_ORDER slots computes the
starts of its first 2^(m-1) sign patterns, then meets their negations in
reverse order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .geometry import Grid2D, check_field, check_trace, trace_to_field
from .potential import PotentialSeries
from .sparse_linalg import SolverError, _kernel, _sine_modes, assemble, solve_spd, to_sine

DEFAULT_SMALLNESS_RADIUS = 0.1
DEFAULT_NEWTON_TOL = 1e-11
DEFAULT_MAX_NEWTON = 25
# Relative residual tolerance of the Newton step's CG, in sine coordinates;
# on the certified finish it bounds the true residual, not the recursive one.
# Polarized divided differences need a direction's four measurements solved
# alike, so it stays tight: at 1e-9 they stop after different CG counts (2
# against 3), and on the n=32 full-arc K=4 heads the worst polarized-flux gap
# to the cascade grew from 2.3e-3 to 8.4e-3 at m=4 and from 4.9e-11 to
# 1.1e-9 at m=2, past the bounds of 5e-3 and 1e-9 that the tests hold.
LINEAR_TOL = 1e-12
# Highest order the program differentiates: a direction's four samples in
# ``linearization.DirectionStore`` resolve the Taylor coefficients F_2..F_4 and no more.
MAX_ORDER = 4

class SmallnessError(ValueError):
    """Boundary data exceeds the well-posedness radius."""


class NewtonError(SolverError):
    """Newton iteration failed to converge."""


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    final_residual: float   # discrete L2 norm of -Lap u + V(x,u) on interior nodes
    boundary_norm: float    # max-norm of the Dirichlet data
    converged: bool
    residual_history: tuple[float, ...] = ()  # per-iterate residual norms, initial first


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
    return _interior_rows(rows, grid)


def _interior_rows(rows: np.ndarray, grid: Grid2D) -> np.ndarray:
    """The (n-1, n-1) interior view of whole stencil rows 1..n-1."""
    return rows.reshape(grid.n - 1, grid.n + 1)[:, 1:-1]


def _residual_into(P: PotentialSeries, interior: np.ndarray, lap: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """-Lap u + V(x,u) on interior nodes into the flat (n-1)^2 array ``out``,
    from u's interior values in the contiguous (n-1, n-1) array ``interior``,
    where V's polynomial reads them, and the interior view ``lap`` of u's
    stencil rows; returns ``out``. V goes into ``out`` first and the stencil
    is added to it (addition commutes)."""
    field = out.reshape(interior.shape)
    P.interior_value(interior, field)
    field += lap
    return out


# Doubling commutes with a rounding whose exact value is 0 or above 2^-1022. From a trace
# value t the start's values pass four sine entries (> 1e-21 up to 10^4 cells a side), an
# inverse eigenvalue (> h^2/8) and five sums, each nonzero one at least 2^-106 times its
# least product: each nonzero value exceeds t 1e-84 1e-9 2^-530 > 2^-1022 for t >= this.
DOUBLING_FLOOR = 1e-50
# A product-order divided difference of m <= MAX_ORDER slots computes the starts of its
# first 2^(m-1) sign patterns, then meets their negations in reverse order; a hit stores
# nothing, so this many entries catch every one.
START_ENTRIES = 2 ** (MAX_ORDER - 1)


@functools.cache
def _newton_state(n: int) -> SimpleNamespace:
    """The state of Newton solves on an n-cell grid, built once per size.
    ``work`` holds the four work arrays: the stencil's rows, the residual,
    which evaluates its Horner polynomial in place, a contiguous copy of the
    interior values that the residual's and the slope's polynomials read, and
    the Jacobian's slope field, which then takes the step's node values. The
    start ring holds the last START_ENTRIES harmonic starts computed on the
    grid: entry j's trace, field and that field's stencil rows are row j of
    ``traces``, ``fields`` and ``stencils``, and ``next`` is the entry
    replaced next. An entry never filled has a zero trace, which no data
    match. The blocks are allocated once, so entries come and go without heap
    traffic. One state per size suffices: a Newton solve runs no caller code
    while it holds the state, so no solve can start inside another
    (solve_semilinear's callers are dtn.dtn_apply and the CLI's
    forward_convergence scenario). CG runs its caller's operator and
    callback, which may solve again, so sparse_linalg keeps free lists."""
    m = n - 1
    return SimpleNamespace(
        work=(np.empty(m * (n + 1)), np.empty(m * m), np.empty((m, m)), np.empty((m, m))),
        traces=np.zeros((START_ENTRIES, 4 * n)), fields=np.empty((START_ENTRIES, (n + 1) ** 2)),
        stencils=np.empty((START_ENTRIES, m * (n + 1))), next=0)


def _harmonic_start(f: np.ndarray, magnitude: np.ndarray, grid: Grid2D,
                    rows: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """f's harmonic extension, given |f|, as (field, c, lap) under the module
    docstring's reuse rule: the start is c times ``field``, which belongs to
    the ring, and ``lap`` is the interior view of the start's stencil rows,
    in the ring on a miss and in ``rows`` on a hit. A miss computes the start
    and its stencil into the oldest entry."""
    state = _newton_state(grid.n)
    peak = int(magnitude.argmax())  # where c times a trace peaks, the trace does
    top = float(f[peak])
    column = state.traces[:, peak].tolist()  # every entry's value at the peak
    for age in range(1, START_ENTRIES + 1):
        j = (state.next - age) % START_ENTRIES
        c = top / column[j] if column[j] else 0.0
        if abs(c) not in (1.0, 2.0) or not np.array_equal(f, c * state.traces[j]):
            continue
        if abs(c) == 2.0 and magnitude[magnitude != 0.0].min() < 2.0 * DOUBLING_FLOOR:
            continue  # f's least nonzero |value| is twice the trace's: below the floor
        field = state.fields[j]
        if abs(c) == 1.0 or math.frexp(grid.h * grid.h)[0] == 0.5:  # h^2 a power of two
            return field, c, _interior_rows(np.multiply(state.stencils[j], c, out=rows), grid)
        return field, c, _stencil_rows(c * field, grid, rows)
    j = state.next
    field = state.fields[j]
    np.copyto(field, harmonic_extension(f, grid))
    np.copyto(state.traces[j], f)
    state.next = (j + 1) % START_ENTRIES
    return field, 1.0, _stencil_rows(field, grid, state.stencils[j])


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

    Starts from the harmonic extension of f (the exact first linearization, so
    the first correction is already quadratically small), which the start ring
    of ``_newton_state`` keeps. Each step solves the Jacobian system in scaled
    sine coordinates, so its CG stops when the (-Lap_h)^-1-norm of the step
    residual falls to LINEAR_TOL times that of the Newton residual (certified
    on the finish), and takes the step back to node values. Newton stops at
    residual DEFAULT_NEWTON_TOL; diverging residuals (3 consecutive increases)
    or DEFAULT_MAX_NEWTON steps raise NewtonError, and data whose max-norm
    exceeds DEFAULT_SMALLNESS_RADIUS raises SmallnessError. The three constants
    are read at call time.
    """
    f = check_trace(f, grid)
    magnitude = np.abs(f)
    fnorm = float(magnitude.max())
    if fnorm > DEFAULT_SMALLNESS_RADIUS:
        raise SmallnessError(f"boundary data max-norm {fnorm:.4g} exceeds smallness "
                             f"radius {DEFAULT_SMALLNESS_RADIUS}")

    rows, res, interior, slope = _newton_state(grid.n).work
    start, c, lap = _harmonic_start(f, magnitude, grid, rows)
    np.multiply(start.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1], c, out=interior)
    history = [_l2(_residual_into(P, interior, lap, res), grid)]
    # the iterate is a new array, written from ``interior`` by each step: the start stays
    # in the ring and is neither copied nor scaled
    u = np.empty(grid.num_nodes)
    u[grid.boundary_nodes] = f
    inner = u.reshape(grid.n + 1, grid.n + 1)[1:-1, 1:-1]
    m, kernel = grid.n - 1, _kernel(grid.n)
    increases = 0
    for it in range(DEFAULT_MAX_NEWTON + 1):
        res_norm = history[-1]
        if res_norm <= DEFAULT_NEWTON_TOL:
            if not it:
                np.copyto(inner, interior)  # the start itself
            return u, SolveReport(it, res_norm, fnorm, True, tuple(history))
        if it == DEFAULT_MAX_NEWTON:
            raise NewtonError(f"Newton did not reach {DEFAULT_NEWTON_TOL} in {DEFAULT_MAX_NEWTON} "
                              f"iterations (residual {res_norm:.3e})", residual=res_norm)
        # ``interior`` holds u's interior values since ``res`` was formed
        A, bound = assemble(P.interior_slope(interior, slope), grid)
        step = solve_spd(A, to_sine(res, grid), tol=LINEAR_TOL, bound=bound).reshape(m, m)
        step *= kernel.scale
        np.subtract(interior, kernel.inverse(step, slope), out=inner)  # the slope is spent with A
        np.copyto(interior, inner)
        # ``to_sine`` has consumed ``res``: the new residual overwrites it
        history.append(_l2(_residual_into(P, interior, _stencil_rows(u, grid, rows), res), grid))
        increases = increases + 1 if history[-1] > res_norm else 0
        if increases >= 3:
            raise NewtonError(f"Newton diverging: residual rose 3 times, "
                              f"now {history[-1]:.3e}", residual=history[-1])
