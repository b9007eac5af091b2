"""Higher-order linearization of the boundary measurement map, twice over:

(a) the analytic cascade: mixed amplitude-derivatives of the solution at
    zero data solve a triangle of linear Dirichlet problems (harmonic for
    single slots, zero-boundary Poisson problems driven by lower-order
    products for multi-slots), memoised under sorted label multisets so that
    a caller sharing one memo between several multisets solves each
    sub-multiset once (``cascade_fields``);
(b) numerical mixed divided differences of the nonlinear measurement map,
    either the tensor-product difference over the slot amplitudes or the
    polarization of directional Taylor coefficients (``DirectionStore``).

The two routes are independent and cross-validate each other; the inversion
pipeline only ever uses route (b) through an opaque measurement function, which
maps a boundary trace to its flux array (``dtn.measurement``).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .forward_solver import DEFAULT_SMALLNESS_RADIUS, harmonic_extension, solve_linear
from .geometry import ArcMask, Grid2D, check_trace
from .potential import PotentialSeries

MAX_PARTITION_SIZE = 8
# Highest order the program differentiates: a direction's four samples in
# ``DirectionStore`` resolve the Taylor coefficients F_2..F_4 and no more.
MAX_ORDER = 4


@functools.cache
def _position_partitions(m: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The set partitions of the positions 0..m-1, each a tuple of sorted
    blocks, in restricted-growth-string order: from each partition of
    0..m-2 in turn, m-1 joins each of its blocks, then forms a block of its
    own. Built once per m."""
    if m == 0:
        return ((),)
    last = m - 1
    return tuple(grown for part in _position_partitions(last)
                 for grown in (*(part[:i] + (block + (last,),) + part[i + 1:]
                                 for i, block in enumerate(part)),
                               part + ((last,),)))


def partitions(S) -> list[tuple[tuple[int, ...], ...]]:
    """All set partitions of S, each a tuple of blocks, deterministic
    restricted-growth-string order, in a fresh list. Guards |S| <= 8."""
    elems = tuple(sorted(S))
    if not 1 <= len(elems) <= MAX_PARTITION_SIZE:
        raise ValueError(f"partition enumeration supports 1..{MAX_PARTITION_SIZE} "
                         f"elements, got {len(elems)}")
    return [tuple(tuple(elems[i] for i in block) for block in part)
            for part in _position_partitions(len(elems))]


@dataclass(frozen=True)
class CascadeState:
    """Mixed amplitude-derivatives of the solution at zero boundary data.

    ``derivs`` maps each nonempty slot subset (sorted tuple of 0-based slot
    indices) to its nodal field. Singletons are harmonic with the slot's
    boundary trace; every larger subset has identically zero boundary values.
    """

    derivs: dict[tuple[int, ...], np.ndarray]

    def field(self, subset) -> np.ndarray:
        return self.derivs[tuple(sorted(subset))]


def nonlinearity_derivative(P: PotentialSeries, S, derivs: dict) -> np.ndarray:
    """Mixed amplitude-derivative of V(x, u) at zero data, for the label
    multiset S (slot indices, or the members of a head).

    Sums, over the set partitions of S with at least two blocks, the
    coefficient field of order (number of blocks) times the product of the
    blocks' solution derivatives, read from ``derivs`` under their sorted
    label tuples (see ``cascade_fields``). Single-block partitions drop out
    because the series has no first-order coefficient; blocks beyond the
    truncation order contribute zero fields. Every S of two or more labels
    has a two-block partition, so the sum is never empty.
    """
    S = tuple(sorted(S))
    if not 2 <= len(S) <= MAX_PARTITION_SIZE:
        raise ValueError(f"nonlinearity derivative needs 2..{MAX_PARTITION_SIZE} slots, "
                         f"got {len(S)}")
    out = None
    for part in _position_partitions(len(S)):
        nblocks = len(part)
        if nblocks < 2 or nblocks > P.kmax:
            continue
        term = P.coefficient(nblocks).copy()
        for positions in part:
            block = tuple(S[i] for i in positions)
            if block not in derivs:
                raise KeyError(f"missing lower-order derivative for slots {block}")
            term *= derivs[block]
        out = term if out is None else out + term
    return out


def run_cascade(P: PotentialSeries, fs, grid: Grid2D) -> CascadeState:
    """Solve the derivative triangle for the given boundary-data slots.

    Singletons get harmonic extensions of their traces; the larger subsets
    follow by ``cascade_fields`` over the slot labels. No nonlinear solve is
    involved.
    """
    fs = tuple(check_trace(f, grid) for f in fs)
    m = len(fs)
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"cascade supports 1..{MAX_ORDER} slots, got {m}")
    fields = {(l,): harmonic_extension(f, grid) for l, f in enumerate(fs)}
    cascade_fields(P, range(m), fields, grid)
    return CascadeState(fields)


def cascade_fields(P: PotentialSeries, S, fields: dict, grid: Grid2D) -> np.ndarray:
    """The cascade field of the label multiset S, memoised in ``fields``.

    ``fields`` maps sorted label tuples to nodal fields and starts with each
    label's harmonic field under ``(label,)``; equal labels mean equal
    fields. Every sub-multiset of S with two or more labels that ``fields``
    lacks, S included, is solved once, in increasing size: a zero-boundary
    Poisson problem whose source is minus the nonlinearity derivative built
    from the smaller ones. A sorted multiset's partition sums always run in
    the same order, so a memoised field is bit-identical to a fresh one.
    """
    S = tuple(sorted(S))
    zero_trace = np.zeros(grid.num_boundary)
    for size in range(2, len(S) + 1):
        for positions in combinations(range(len(S)), size):
            key = tuple(S[i] for i in positions)
            if key not in fields:
                source = nonlinearity_derivative(P, key, fields)
                fields[key] = solve_linear(-source, zero_trace, grid) if source.any() \
                    else np.zeros(grid.num_nodes)
    return fields[S]


def measured_linearized_flux(measure, fs, eps: float, mask: ArcMask,
                             grid: Grid2D) -> np.ndarray:
    """Mixed divided difference of an opaque measurement map ``measure``,
    which returns the flux array of a boundary trace.

    Applies the tensor-product central difference over the slot amplitudes:
    sum over the 2^m sign patterns of (product of signs) times the
    measurement of (sum of sign*eps*f_l), divided by (2 eps)^m. Returns an
    arc-masked boundary trace. O(eps^2) truncation per slot.
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    fs = tuple(check_trace(f, grid) for f in fs)
    m = len(fs)
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"divided differences support 1..{MAX_ORDER} slots, got {m}")
    acc = np.zeros(grid.num_boundary)
    for signs in product((-1.0, 1.0), repeat=m):
        trace = eps * sum(s * f for s, f in zip(signs, fs))
        acc += np.prod(signs) * measure(trace)
    acc /= (2.0 * eps) ** m
    acc[~mask.flags] = 0.0
    return acc


class DirectionStore:
    """Directional Taylor coefficients of an opaque measurement map F along
    sums of the given traces, each direction measured once.

    A sorted multiset S of trace indices stands for f_S, the sum of its
    traces. Its direction is measured along the mean g_S = f_S / |S|, four
    times, at t = +-s and +-2s with s = 3 eps / 2, so that no sample exceeds
    3 eps max|g_S|. With E and O the even and odd parts of t -> F(t g_S),

        F_2 = (16 E(s) - E(2s)) / (12 s^2)
        F_3 = (O(2s) - 2 O(s)) / (6 s^3)
        F_4 = (E(2s) - 4 E(s)) / (12 s^4)

    are the t^m coefficients with the neighbouring orders (F_4, F_1 and F_2)
    eliminated, and F_m(f_S) = |S|^m F_m(g_S). Multisets with the same mean,
    such as (0,) and (0, 0), share one direction, and a direction's four
    measurements serve every head and every order that contains it. Each
    direction keeps E(s), E(2s), O(s) and O(2s) at the arc nodes, from which
    ``taylor`` forms the coefficient it is asked for; ``calls`` counts the
    measurements.
    """

    def __init__(self, measure, traces, eps: float, mask: ArcMask, grid: Grid2D):
        if not eps > 0.0:
            raise ValueError("eps must be positive")
        self._measure = measure
        self._traces = tuple(check_trace(f, grid) for f in traces)
        self._arc = np.flatnonzero(mask.flags)
        self.step = 1.5 * eps
        self.calls = 0
        # direction -> (E(s), E(2s), O(s), O(2s)) of F(t g) at the arc nodes
        self._parts: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    def taylor(self, S, m: int) -> np.ndarray:
        """F_m(f_S), the t^m coefficient of F(t f_S), at the arc nodes."""
        if not 2 <= m <= MAX_ORDER:
            raise ValueError(f"directional coefficients cover orders 2..{MAX_ORDER}, got {m}")
        counts = Counter(S)
        common = math.gcd(*counts.values())
        key = tuple(i for i, c in sorted(counts.items()) for _ in range(c // common))
        if key not in self._parts:
            g = sum(self._traces[i] for i in key) / len(key)
            a, b, c, d = (self._measure(t * self.step * g)[self._arc]
                          for t in (1.0, -1.0, 2.0, -2.0))
            self.calls += 4
            self._parts[key] = (0.5 * (a + b), 0.5 * (c + d), 0.5 * (a - b), 0.5 * (c - d))
        even1, even2, odd1, odd2 = self._parts[key]
        s = self.step
        if m == 2:
            coeff = (16.0 * even1 - even2) / (12.0 * s ** 2)
        elif m == 3:
            coeff = (odd2 - 2.0 * odd1) / (6.0 * s ** 3)
        else:
            coeff = (even2 - 4.0 * even1) / (12.0 * s ** 4)
        return len(S) ** m * coeff

    def flux(self, head) -> np.ndarray:
        """The mixed flux D^m F[f_1..f_m] of the head's m traces at the arc
        nodes, by polarization (Thomas, Indag. Math. 25, 2014): the sum over
        the nonempty position subsets P of (-1)^(m - |P|) F_m(f_P)."""
        head = tuple(sorted(head))
        m = len(head)
        acc = np.zeros(self._arc.size)
        for size in range(1, m + 1):
            for positions in combinations(range(m), size):
                acc += (-1) ** (m - size) * self.taylor([head[i] for i in positions], m)
        return acc


def check_difference_gate(fs, eps: float) -> None:
    """Raise ValueError unless every evaluation point of the divided
    difference of the traces ``fs`` at step ``eps`` passes the solver's
    smallness gate; eps times the sum of the |f_l| bounds them all."""
    worst = eps * sum(np.abs(f) for f in fs)
    if worst.size and not float(np.max(worst)) <= DEFAULT_SMALLNESS_RADIUS:
        raise ValueError(f"step {eps} pushes evaluation points outside the smallness gate "
                         f"(max combined amplitude {float(np.max(worst)):.4g} > "
                         f"{DEFAULT_SMALLNESS_RADIUS})")

