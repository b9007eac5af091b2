"""Inductive recovery of the nonlinearity coefficients from arc-confined
measurements.

For each order m = 2..K, the order-m mixed derivative of the measurement
map over m harmonic inputs u_1..u_m (a head) is the normal-derivative
read-out of a field W that vanishes on the boundary and solves, on the grid,

    -Lap_h W = -(V_m u_1 ... u_m + S),

with S the source the lower orders build through the cascade. Write
<phi, g> = h * sum(phi * g) for the boundary pairing, A for -Lap_h with zero
boundary values and N for the read-out stencil ``normal_derivative``. Both
are linear, so for V_m = sum_b c_b B_b and any boundary trace phi

    <phi, N W> = -sum_b c_b <phi, N A^-1 (B_b u_1 ... u_m)> - <phi, N A^-1 S>

exactly. Equivalently, with the adjoint field z_phi = A^-1 N^T (h phi), the
row is the basis paired with -z_phi * u_1 ... u_m. Each (head, phi) pair is
therefore one linear equation for the coefficients with no quadrature
error. The stage takes phi to be the unit trace of each arc node, so that the
pairing reads the flux at that node and the whole returned trace is used,
and computes the model forward. A side's read-out combines the two rows or
columns of W next to it, so in sine space it is one kernel, whose mirror
reads the opposite side, and the basis functions are products of axis
factors, so the sine-basis solve factors through them: one read-out
operator, built per stage from that kernel pair, maps a head's product to
its whole (arc node x basis function) model with a few small matrix
products, without a Poisson solve per basis function and without stored
adjoint fields (see ``_arc_readout``). V_m is sought on tensor Lagrange
interpolants at Chebyshev-Lobatto nodes, by a row-equilibrated Tikhonov
least-squares solve with the basis's gradient penalty, weighted at the
L-curve corner. The stage does not measure a head's flux by its own
2^m-point divided difference: it polarizes directional Taylor coefficients
along the sums of the head's sub-multisets, and each such direction is
measured four times, once per run, for every head and every order that
contains it (``DirectionStore``, which also holds the family, arc and grid).
Lower orders enter only through their already reconstructed fields, which
keeps the inverse-problem information barrier intact; the cascade fields of
S are solved once per stage, in one memo keyed by member multisets.

``measured_moment`` keeps the continuum form of the identity (the pairing
equals the interior integral of V_m times m+1 harmonic functions, up to
O(h^2 + eps^2)); it checks the measurement chain and is not used by the
stage.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from itertools import combinations_with_replacement

import numpy as np

from .dtn import check_support
from .sparse_linalg import _sine_modes
from .geometry import (ArcMask, Grid2D, boundary_integral, check_field, full_mask,
                       interior_integral)
from .harmonic import HarmonicMember
from .linearization import (MAX_ORDER, DirectionStore, cascade_fields, check_resolves_order,
                            measured_linearized_flux, nonlinearity_derivative)
from .potential import PotentialSeries

# L-curve search grid for the Tikhonov weight, relative to sigma_max(A)^2
LCURVE_WEIGHTS = np.logspace(-16.0, 0.0, 65)
# a row whose model norm is below this share of its head's largest is dropped
ZERO_ROW = 1e-12


@dataclass(frozen=True)
class CoeffBasis:
    """Tensor-product Lagrange interpolants at Chebyshev-Lobatto nodes.

    Column ``j * nodes_per_side + i`` is l_i(x) l_j(y), where l_i is the
    degree ``nodes_per_side - 1`` cardinal polynomial of the i-th node
    (1 - cos(pi i / (nodes_per_side - 1))) / 2. The basis is nodal and a
    partition of unity. ``axis`` holds the l_i at the n+1 grid abscissae.
    """

    nodes_per_side: int
    axis: np.ndarray     # (n + 1, nodes_per_side)
    fields: np.ndarray   # (num_grid_nodes, nodes_per_side^2)
    penalty: np.ndarray  # ``gradient_penalty``: the L of every solve on the basis

    @property
    def size(self) -> int:
        return self.nodes_per_side ** 2

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        return self.fields @ c


def make_basis(nodes_per_side: int, grid: Grid2D) -> CoeffBasis:
    """Sample the tensor Lagrange interpolants onto the computation grid."""
    nb = nodes_per_side
    if nb < 2:
        raise ValueError("basis needs at least 2 nodes per side")
    nodes = 0.5 - 0.5 * np.cos(np.pi * np.arange(nb) / (nb - 1))
    axis = np.linspace(0.0, 1.0, grid.n + 1)
    cardinal = np.ones((axis.size, nb))
    for i in range(nb):
        for k in range(nb):
            if k != i:
                cardinal[:, i] *= (axis - nodes[k]) / (nodes[i] - nodes[k])
    # node (ix, iy) is row iy * (n+1) + ix; column j * nb + i is l_i(x) l_j(y)
    fields = np.einsum("yj,xi->yxji", cardinal, cardinal).reshape(grid.num_nodes, nb * nb)
    penalty = gradient_penalty(nb)
    for array in (cardinal, fields, penalty):
        array.flags.writeable = False
    return CoeffBasis(nb, cardinal, fields, penalty)


def gradient_penalty(nb: int) -> np.ndarray:
    """First-difference matrix on the coarse coefficient grid: the x
    differences of each row of nodes, then the y differences."""
    D = np.diff(np.eye(nb), axis=0)
    return np.vstack([np.kron(np.eye(nb), D), np.kron(D, np.eye(nb))])


@dataclass(frozen=True)
class MomentSystem:
    """Regularized least-squares problem for one coefficient order:
    minimize ||matrix c - rhs||^2 + lam ||L c||^2 with L the gradient penalty.

    An assembled system holds the triangular factor of its equilibrated rows
    augmented by their right-hand side: (basis_size + 1) rows, the last of
    which carries the part of the data outside the rows' range. It has the
    same minimizer, residual and solution operator as the rows themselves.
    ``heads`` are the heads measured and ``rows`` counts the rows folded in.
    """

    m: int
    basis: CoeffBasis
    heads: tuple[tuple[int, ...], ...]
    matrix: np.ndarray
    rhs: np.ndarray
    lam: float
    rows: int


def _truncated(known: PotentialSeries | None, m: int, grid: Grid2D) -> PotentialSeries:
    """Only coefficients of order < m may enter the lower-order correction."""
    if known is None or m <= 2:
        return PotentialSeries.zero(grid)
    fields = {k: known.coefficient(k) for k in range(2, m) if known.coefficient(k).any()}
    return PotentialSeries.from_coefficients(grid, fields)


def measured_moment(measure, members, eps: float, mask: ArcMask, grid: Grid2D,
                    known: PotentialSeries | None = None) -> float:
    """One moment of the order-m coefficient against a harmonic (m+1)-tuple.

    The first m members' traces drive the mixed divided difference of the
    opaque measurement map; the flux is integrated against the last member's
    trace over the boundary, and the interior integral of the lower-order
    source (built from ``known`` via the cascade; none for ``known`` None)
    times the last member is subtracted. In exact arithmetic the result
    equals the interior integral of (coefficient * product of all m+1
    members).
    """
    members = tuple(members)
    m = len(members) - 1
    if m < 2:
        raise ValueError("a moment needs at least 3 harmonic functions")
    for mem in members:
        check_support(mem.trace, mask, grid)
    traces = [mem.trace for mem in members[:m]]
    flux = measured_linearized_flux(measure, traces, eps, mask, grid)
    value = boundary_integral(flux * members[m].trace, full_mask(grid), grid)
    low = _truncated(known, m, grid)
    if not low.is_zero:
        fields = {(i,): mem.field for i, mem in enumerate(members[:m])}
        source = _lower_order_source(low, tuple(range(m)), fields, grid)
        value -= interior_integral(source * members[m].field, grid)
    return float(value)


def _lower_order_source(low: PotentialSeries, S: tuple[int, ...], fields: dict,
                        grid: Grid2D) -> np.ndarray:
    """The lower orders' part of the order-m source, m = len(S), for the
    sorted label multiset S: the mixed derivative of V built from ``low``
    over the cascade fields of S's proper sub-multisets, which
    ``cascade_fields`` adds to the memo ``fields`` where it lacks them."""
    for i in range(len(S)):
        cascade_fields(low, S[:i] + S[i + 1:], fields, grid)
    return nonlinearity_derivative(low, S, fields)


def _arc_readout(grid: Grid2D, axis: np.ndarray,
                 arc: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map from a field P to the ``normal_derivative`` read-out, at the
    ``arc`` nodes, of the zero-boundary solutions W_ij of
    -Lap_h W_ij = P a_i(x) a_j(y), for every pair of axis factors a_i, a_j
    (the q columns of ``axis``, sampled at the n+1 grid abscissae). The map
    returns a (len(arc), q^2) array whose column j * q + i is that of W_ij.

    With S the sine matrix and Lam^-1 the inverse eigenvalues of the direct
    kernel, row r of W_ij is sum_y a_j(y) Q_i[y, :] N_r[y, :] @ S, where
    Q_i = P diag(a_i) S and N_r = S (S[r, :]^T o Lam^-1). The bottom side's
    read-out (3 w0 - 4 w1 + w2) / (2h), with w0 = 0, is that sum with the one
    kernel D = S ((-4 S[0] + S[1]) / (2h) o Lam^-1) in place of N_r, and the
    top side's is the sum with its y-mirror D[::-1]. The left and right sides
    read columns: the same two kernels applied to P^T, with i and j swapped.
    Each orientation thus costs one product P @ (a_i(x) S[x, l]), shared by
    its two sides. Arc node k sits at offset k mod n of side k // n of the
    walk, the top and left sides running against the axes; offset 0 is a
    corner, which reads boundary nodes, so its row is exactly zero. Each
    call writes both orientations' rows into one work array, kept with a
    zero row after them, and gathers the arc nodes' rows from it into a new
    array by one index built here.
    """
    n, q = grid.n, axis.shape[1]
    sine, inverse, _ = _sine_modes(n)
    factors = axis[1:-1]  # interior samples, (n - 1, q)
    near = sine @ ((-4.0 * sine[0] + sine[1])[:, None] / (2.0 * grid.h) * inverse)
    # a_i(x) S[x, l] and a_j(y) D[y, l], laid out (l, (kernel, j), y), serve
    # both orientations
    mixer = (factors[:, :, None] * sine[:, None, :]).reshape(n - 1, q * (n - 1))
    weights = np.einsum("yj,kyl->lkjy", factors, np.stack([near, near[::-1]]),
                        order="C").reshape(n - 1, 2 * q, n - 1)
    # rows (orientation, position, kernel) with columns j * q + i, then a zero row
    rows = np.zeros((4 * (n - 1) + 1, q * q))
    blocks = rows[:-1].reshape(2, n - 1, 2, q, q)
    # walk side -> (orientation, kernel, position of offset 1..n-1): the top
    # and left sides run backwards
    offsets = np.arange(n - 1)
    sides = [(0, 0, offsets), (1, 1, offsets), (0, 1, offsets[::-1]), (1, 0, offsets[::-1])]
    walk = np.full((4, n), rows.shape[0] - 1)
    for side, (orientation, kernel, position) in enumerate(sides):
        walk[side, 1:] = (orientation * (n - 1) + position) * 2 + kernel
    index = walk.ravel()[arc]

    def readout(field: np.ndarray) -> np.ndarray:
        P = check_field(field, grid).reshape(n + 1, n + 1)[1:-1, 1:-1]
        for orientation, side_P in enumerate((P, P.T)):
            modes = (side_P @ mixer).reshape(n - 1, q, n - 1) \
                .transpose(2, 0, 1)  # (l, y, i)
            block = (sine @ (weights @ modes).reshape(n - 1, 2 * q * q)) \
                .reshape(n - 1, 2, q, q)  # (position, kernel, j, i)
            blocks[orientation] = block.swapaxes(2, 3) if orientation else block
        return rows.take(index, axis=0)

    return readout


def assemble_system(m: int, basis: CoeffBasis, directions: DirectionStore,
                    known: PotentialSeries | None, *, heads: int, seed: int,
                    lam: float | None) -> MomentSystem:
    """Build the order-m moment system: one row per (head, arc node) pair.

    A head is a sorted m-multiset of members of the family of ``directions``,
    the run's store, which also gives the arc and grid. The first ``heads``
    of a seeded permutation of all heads are used, each once, so every head
    is equally likely. A head's mixed flux is the polarization of the
    order-m Taylor coefficients along the sums of its sub-multisets, read
    from the store, which measures each direction (four measurements) the
    first time any head of any stage needs it. A row reads the head's flux
    at one arc node: its data is h * flux there, less the read-out of the
    source of the lower orders ``known`` (None if none); its model is minus h
    times the read-out there of each basis function times the head's
    product, solved on the grid, which is exactly what the measurement
    applies (see the module docstring). One read-out operator per stage
    (``_arc_readout``) gives a head's whole model, and the same map with
    unit axis factors reads the lower-order source. That source's cascade
    fields are solved once per stage, each under its member sub-multiset in
    one memo that starts with the family's harmonic fields and is kept until
    the stage returns (``cascade_fields``). Rows whose model vanishes (a
    zero member, or a corner, which the read-out does not see) are dropped
    before anything is measured. Every row is scaled to unit norm, the
    measured data error being proportional to the row norm, and each head's
    rows are folded into a running triangular factor, so that the system
    holds O(basis size^2) numbers (``MomentSystem``). ``lam`` None takes the
    L-curve corner.
    """
    if m < 2:
        raise ValueError("moment systems start at order 2")
    family, arc, grid = directions.family, directions.arc, directions.grid
    low = _truncated(known, m, grid)
    p = basis.size
    model_readout = _arc_readout(grid, basis.axis, arc)
    corrected = not low.is_zero
    if corrected:
        source_readout = _arc_readout(grid, np.ones((grid.n + 1, 1)), arc)

    # the stage's cascade memo, keyed by member multisets
    fields = {(i,): member.field for i, member in enumerate(family)}
    measured: list[tuple[int, ...]] = []
    count = 0
    factor = np.zeros((0, p + 1))
    pool = list(combinations_with_replacement(range(len(family)), m))
    for k in np.random.default_rng(seed).permutation(len(pool))[:heads]:
        head = pool[k]
        prod = family[head[0]].field * family[head[1]].field
        for i in head[2:]:
            prod *= family[i].field
        model = -grid.h * model_readout(prod)
        norms = np.linalg.norm(model, axis=1)
        keep = np.flatnonzero(norms > ZERO_ROW * norms.max())
        if keep.size:
            data = grid.h * directions.flux(head)
            if corrected:
                source = _lower_order_source(low, head, fields, grid)
                data += grid.h * source_readout(source)[:, 0]
            block = np.column_stack([model, data])[keep] / norms[keep, None]
            factor = np.linalg.qr(np.vstack([factor, block]), mode="r")
            measured.append(head)
            count += keep.size
    if not count:
        raise ValueError("no usable heads: family cannot form a moment system")
    stacked = np.zeros((p + 1, p + 1))
    stacked[:factor.shape[0]] = factor
    matrix, rhs = stacked[:, :p], stacked[:, p]
    if lam is None:
        lam = lcurve_weight(matrix, rhs, basis.penalty)
    return MomentSystem(m, basis, tuple(measured), matrix, rhs, float(lam), count)


def _tikhonov(matrix: np.ndarray, rhs: np.ndarray, lam: float, penalty: np.ndarray) -> np.ndarray:
    """argmin ||matrix c - rhs||^2 + lam ||penalty c||^2 by QR of the stacked
    system, which keeps the conditioning of ``matrix`` instead of squaring it."""
    q, r = np.linalg.qr(np.vstack([matrix, np.sqrt(lam) * penalty]))
    return np.linalg.solve(r, q[:matrix.shape[0]].T @ rhs)


def lcurve_weight(matrix: np.ndarray, rhs: np.ndarray, penalty: np.ndarray) -> float:
    """Tikhonov weight at the corner of the L-curve (Hansen, SIAM Rev. 1992).

    Traces (log residual, log ||L c||) over ``LCURVE_WEIGHTS`` times
    sigma_max(A)^2, cut below sigma_min(A)^2 where the solution no longer
    moves, and returns the weight of largest curvature, taken by finite
    differences in log(weight) at the interior points. The curve is read in
    closed form from one generalized SVD of (A, L), computed as Paige and
    Saunders do (SIAM J. Numer. Anal. 1981): [A; L] = [Q_A; Q_L] R,
    Q_A = U diag(c) Z^T, s_i = ||Q_L z_i|| and beta = U^T y give, at weight
    lam, residual^2 = sum (lam s^2 beta / (c^2 + lam s^2))^2 + ||y - U beta||^2
    and ||L c|| = ||s c beta / (c^2 + lam s^2)||. For all-zero data the
    solution is zero at every weight and the curve is a point, so the weight,
    which then sets only the condition number and the noise ceiling, is the
    grid's top, sigma_max(A)^2, rather than a point rounding would pick.
    """
    sigma = np.linalg.svd(matrix, compute_uv=False)
    if not rhs.any():
        return float(sigma[0] ** 2)
    smallest = sigma[-1] if sigma.size == matrix.shape[1] else 0.0
    weights = sigma[0] ** 2 * LCURVE_WEIGHTS
    weights = weights[min(np.searchsorted(weights, smallest ** 2), weights.size - 3):]
    q = np.linalg.qr(np.vstack([matrix, penalty]))[0]
    u, c, zt = np.linalg.svd(q[:len(matrix)], full_matrices=False)
    s = np.linalg.norm(q[len(matrix):] @ zt.T, axis=0)  # not sqrt(1 - c^2), which cancels
    beta = u.T @ rhs
    denom = c * c + weights[:, None] * (s * s)
    res = np.hypot(np.linalg.norm(weights[:, None] * (s * s * beta) / denom, axis=1),
                   np.linalg.norm(rhs - u @ beta))
    pen = np.linalg.norm(s * c * beta / denom, axis=1)
    x, y = (np.log(np.maximum(v, np.finfo(float).tiny)) for v in (res, pen))
    t = np.log(weights)
    dx, dy = np.gradient(x, t), np.gradient(y, t)
    ddx, ddy = np.gradient(dx, t), np.gradient(dy, t)
    with np.errstate(divide="ignore", invalid="ignore"):
        curvature = (dx * ddy - ddx * dy) / (dx * dx + dy * dy) ** 1.5
    return float(weights[1 + int(np.argmax(np.nan_to_num(curvature[1:-1], nan=-np.inf)))])


def solve_coefficients(system: MomentSystem) -> np.ndarray:
    """Coefficient vector minimizing ||A c - y||^2 + lam ||L c||^2.

    Solved as the stacked least-squares problem [A; sqrt(lam) L] c = [y; 0]
    by QR, with L the basis's penalty.
    """
    if system.rows == 0:
        raise ValueError("moment system is empty")
    if not system.rhs.any():
        return np.zeros(system.basis.size)
    return _tikhonov(system.matrix, system.rhs, system.lam, system.basis.penalty)


def solution_operator_norm(system: MomentSystem, grid: Grid2D) -> float:
    """Worst-case L2 field norm produced per unit of the system's data.

    Bounds ||reconstruction||_{L2} <= norm * ||y||_2 for the linear solve
    map, y being the system's right-hand side over all its rows (equilibrated
    rows for an assembled system); used to turn moment-gap statistics into a
    field-level noise ceiling.
    """
    # data -> coefficients: the Tikhonov solve of each unit right-hand side
    S = _tikhonov(system.matrix, np.eye(len(system.matrix)), system.lam, system.basis.penalty)
    w = np.full(grid.n + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    G = system.basis.fields.T @ (np.outer(w, w).reshape(-1, 1) * system.basis.fields)
    sym = S.T @ G @ S
    return float(np.sqrt(max(np.linalg.eigvalsh(0.5 * (sym + sym.T))[-1], 0.0)))


def rel_l2_error(rec: np.ndarray, truth: np.ndarray, grid: Grid2D) -> float:
    """Relative L2 error of a reconstructed field against the ground truth."""
    denom = np.sqrt(interior_integral(truth * truth, grid))
    if denom == 0.0:
        return float(np.sqrt(interior_integral(rec * rec, grid)))
    return float(np.sqrt(interior_integral((rec - truth) ** 2, grid)) / denom)


@dataclass(frozen=True)
class StageDiagnostics:
    """One stage's record. ``rows`` counts the moment rows solved, ``heads``
    the heads whose flux they read, and ``measurements`` the calls of the
    measurement map the stage made: four for each direction it was the first
    to need. Residual, condition number ([A; sqrt(lam) L]) and noise ceiling
    describe the equilibrated system the stage solves, in that system's
    units."""

    m: int
    rows: int
    heads: int
    measurements: int
    basis_size: int
    lam: float
    residual: float
    cond_estimate: float
    noise_ceiling_per_unit_gap: float

    def to_dict(self) -> dict:
        out = asdict(self)
        out["lambda"] = out.pop("lam")
        return out


@dataclass(frozen=True)
class ReconstructionResult:
    series: PotentialSeries
    stages: tuple[StageDiagnostics, ...]
    systems: tuple[MomentSystem, ...] = field(repr=False, default=())


def reconstruct_all(measure, K: int, family: tuple[HarmonicMember, ...], mask: ArcMask,
                    grid: Grid2D, *, eps: float, basis_per_side: int, rows_factor: int,
                    lam: float | None, seed: int) -> ReconstructionResult:
    """Recover coefficient fields for orders 2..K, inductively, from the
    caller's harmonic ``family`` on the arc ``mask``.

    Stage m draws ``rows_factor * basis size`` heads with seed ``seed + m``
    (fewer when the family has fewer distinct m-multisets) and takes each
    head's flux by polarization from one ``DirectionStore`` over the family
    and arc at ``eps``, which the stages share, so that a direction is
    measured once per run, and from which they read the family, arc and
    grid. It pairs each head's flux with the unit trace of every arc node,
    models each pairing with the same discrete Poisson solve and read-out
    (see the module docstring), folds the equilibrated rows into a
    triangular factor and solves the Tikhonov problem with the basis's
    penalty at ``lam``, or at the L-curve weight for ``lam`` None. The
    lower-order correction is built from the previous stages' outputs: no
    truth is passed in, so ``measure`` is the only way to it, and callers
    score the result. K outside 2..MAX_ORDER and an eps below the Newton
    floor (``resolves_order``) raise before any measurement.
    """
    if not 2 <= K <= MAX_ORDER:
        raise ValueError(f"reconstruction covers orders K = 2..{MAX_ORDER}, got {K}")
    check_resolves_order(eps, K)
    basis = make_basis(basis_per_side, grid)
    directions = DirectionStore(measure, family, eps, mask, grid)
    fields: dict[int, np.ndarray] = {}
    stages: list[StageDiagnostics] = []
    systems: list[MomentSystem] = []
    for m in range(2, K + 1):
        calls = directions.calls
        system = assemble_system(m, basis, directions,
                                 PotentialSeries.from_coefficients(grid, fields),
                                 heads=rows_factor * basis.size, seed=seed + m, lam=lam)
        coeff_vec = solve_coefficients(system)
        stages.append(StageDiagnostics(
            m, system.rows, len(system.heads), directions.calls - calls, basis.size, system.lam,
            float(np.linalg.norm(system.matrix @ coeff_vec - system.rhs)),
            float(np.linalg.cond(np.vstack([system.matrix, np.sqrt(system.lam) * basis.penalty]))),
            solution_operator_norm(system, grid)))
        systems.append(system)
        fields[m] = system.basis.synthesize(coeff_vec)
    return ReconstructionResult(PotentialSeries.from_coefficients(grid, fields), tuple(stages),
                                tuple(systems))
