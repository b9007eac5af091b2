"""Higher-order linearization of the boundary measurement map, twice over:

(a) the analytic cascade: mixed amplitude-derivatives of the solution at
    zero data solve a triangle of linear Dirichlet problems (harmonic for
    single slots, zero-boundary Poisson problems driven by lower-order
    products for multi-slots);
(b) numerical mixed divided differences of the nonlinear measurement map.

The two routes are independent and cross-validate each other; the inversion
pipeline only ever uses route (b) through an opaque measurement function.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .dtn import DtnSample, dtn_apply
from .forward_solver import DEFAULT_SMALLNESS_RADIUS, harmonic_extension, solve_linear
from .geometry import ArcMask, Grid2D, check_trace
from .potential import PotentialSeries

MAX_PARTITION_SIZE = 8
MAX_CASCADE_SLOTS = 6
MAX_DIFFERENCE_SLOTS = 4

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def _growth_strings(size: int):
    """Restricted-growth strings of the given length, lexicographic order."""
    a = [0] * size
    while True:
        yield tuple(a)
        # increment the rightmost position that can still grow
        i = size - 1
        while i > 0:
            if a[i] <= max(a[:i]):
                break
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, size):
            a[j] = 0


def partitions(S) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of S, each a tuple of blocks, deterministic
    restricted-growth-string order. Guards |S| <= 8."""
    elems = tuple(sorted(S))
    if not 1 <= len(elems) <= MAX_PARTITION_SIZE:
        raise ValueError(f"partition enumeration supports 1..{MAX_PARTITION_SIZE} "
                         f"elements, got {len(elems)}")
    out = []
    for rgs in _growth_strings(len(elems)):
        nblocks = max(rgs) + 1
        blocks = [[] for _ in range(nblocks)]
        for pos, label in enumerate(rgs):
            blocks[label].append(elems[pos])
        out.append(tuple(tuple(b) for b in blocks))
    return out


@dataclass(frozen=True)
class CascadeState:
    """Mixed amplitude-derivatives of the solution at zero boundary data.

    ``derivs`` maps each nonempty slot subset (sorted tuple of 0-based slot
    indices) to its nodal field. Singletons are harmonic with the slot's
    boundary trace; every larger subset has identically zero boundary values.
    """

    fs: tuple[np.ndarray, ...]
    derivs: dict[tuple[int, ...], np.ndarray]

    @property
    def m(self) -> int:
        return len(self.fs)

    def field(self, subset) -> np.ndarray:
        return self.derivs[tuple(sorted(subset))]


def nonlinearity_derivative(P: PotentialSeries, S, derivs: dict) -> np.ndarray:
    """Mixed amplitude-derivative of V(x, u) at zero data, for slot subset S.

    Sums, over the set partitions of S with at least two blocks, the
    coefficient field of order (number of blocks) times the product of the
    blocks' solution derivatives, read from ``derivs`` as laid out in
    ``CascadeState.derivs``. Single-block partitions drop out because the
    series has no first-order coefficient; blocks beyond the truncation
    order contribute zero fields.
    """
    S = tuple(sorted(S))
    if len(S) < 2:
        raise ValueError("nonlinearity derivative needs at least 2 slots")
    out = None
    for part in partitions(S):
        nblocks = len(part)
        if nblocks < 2 or nblocks > P.kmax:
            continue
        term = P.coefficient(nblocks).copy()
        for block in part:
            if block not in derivs:
                raise KeyError(f"missing lower-order derivative for slots {block}")
            term *= derivs[block]
        out = term if out is None else out + term
    if out is None:
        out = np.zeros_like(next(iter(derivs.values())))
    return out


def run_cascade(P: PotentialSeries, fs, grid: Grid2D,
                max_subset_size: int | None = None) -> CascadeState:
    """Solve the derivative triangle for the given boundary-data slots.

    Subsets are processed in increasing size: singletons get harmonic
    extensions of their traces; each larger subset solves a zero-boundary
    Poisson problem whose source is minus the nonlinearity derivative built
    from the already-computed fields. No nonlinear solve is involved.
    ``max_subset_size`` truncates the triangle when only lower-order fields
    are needed.
    """
    fs = tuple(check_trace(f, grid) for f in fs)
    m = len(fs)
    if not 1 <= m <= MAX_CASCADE_SLOTS:
        raise ValueError(f"cascade supports 1..{MAX_CASCADE_SLOTS} slots, got {m}")
    top = m if max_subset_size is None else min(m, max_subset_size)
    derivs: dict[tuple[int, ...], np.ndarray] = {}
    for l in range(m):
        derivs[(l,)] = harmonic_extension(fs[l], grid)
    zero_trace = np.zeros(grid.num_boundary)
    for size in range(2, top + 1):
        for subset in _subsets(m, size):
            source = nonlinearity_derivative(P, subset, derivs)
            if source.any():
                derivs[subset] = solve_linear(-source, zero_trace, grid)
            else:
                derivs[subset] = np.zeros(grid.num_nodes)
    return CascadeState(fs, derivs)


def _subsets(m: int, size: int):
    return combinations(range(m), size)


def measured_linearized_flux(measure, fs, eps: float, mask: ArcMask,
                             grid: Grid2D) -> np.ndarray:
    """Mixed divided difference of an opaque measurement map.

    Applies the tensor-product central difference over the slot amplitudes:
    sum over the 2^m sign patterns of (product of signs) times the
    measurement of (sum of sign*eps*f_l), divided by (2 eps)^m. Returns an
    arc-masked boundary trace. O(eps^2) truncation per slot.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    fs = tuple(check_trace(f, grid) for f in fs)
    m = len(fs)
    if not 1 <= m <= MAX_DIFFERENCE_SLOTS:
        raise ValueError(f"divided differences support 1..{MAX_DIFFERENCE_SLOTS} "
                         f"slots, got {m}")
    acc = np.zeros(grid.num_boundary)
    for signs in product((-1.0, 1.0), repeat=m):
        trace = eps * sum(s * f for s, f in zip(signs, fs))
        sample = measure(trace)
        out = sample.output if isinstance(sample, DtnSample) else np.asarray(sample, dtype=float)
        acc += np.prod(signs) * out
    acc /= (2.0 * eps) ** m
    acc[~mask.flags] = 0.0
    return acc


def mixed_divided_difference(P: PotentialSeries, fs, eps: float, mask: ArcMask,
                             grid: Grid2D, smallness_radius: float = DEFAULT_SMALLNESS_RADIUS,
                             **solve_kwargs) -> np.ndarray:
    """Divided difference of the known-coefficient measurement map.

    Pre-checks that every evaluation point passes the smallness gate, then
    delegates to the opaque-map engine with the simulator as the measure.
    """
    fs = tuple(check_trace(f, grid) for f in fs)
    worst = eps * sum(np.abs(f) for f in fs)
    if worst.size and float(np.max(worst)) > smallness_radius:
        raise ValueError(
            f"eps={eps} pushes evaluation points outside the smallness gate "
            f"(max combined amplitude {float(np.max(worst)):.4g} > {smallness_radius})")

    def measure(trace: np.ndarray) -> DtnSample:
        return dtn_apply(P, trace, mask, grid,
                         smallness_radius=smallness_radius, **solve_kwargs)

    return measured_linearized_flux(measure, fs, eps, mask, grid)
