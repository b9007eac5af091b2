"""Discrete unit-square domain: grid, boundary walk, accessible arc, quadrature.

Node layout: the unit square is discretized with ``n`` cells per side
(spacing ``h = 1/n``); node ``(ix, iy)`` sits at ``(ix*h, iy*h)`` and is
stored at flat index ``iy*(n+1) + ix`` (row-major, x fastest).

Boundary walk: the 4n boundary nodes are ordered counterclockwise starting
at (0,0), parametrized by arclength ``s in [0, 4)``:

    bottom  s in [0,1):  (s, 0)
    right   s in [1,2):  (1, s-1)
    top     s in [2,3):  (3-s, 1)
    left    s in [3,4):  (0, 4-s)

Each corner belongs to the side that precedes it in the walk for the
purpose of its outward normal: (0,0) -> (-1,0), (1,0) -> (0,-1),
(1,1) -> (1,0), (0,1) -> (0,1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid on the unit square with boundary indexing."""

    n: int
    h: float = field(init=False)
    # derived, filled in __post_init__ (all read-only arrays)
    boundary_nodes: np.ndarray = field(init=False, repr=False)   # (4n,) flat node indices, walk order
    boundary_s: np.ndarray = field(init=False, repr=False)       # (4n,) arclength parameter
    boundary_normals: np.ndarray = field(init=False, repr=False) # (4n, 2) outward unit normals (ints)
    boundary_inward: np.ndarray = field(init=False, repr=False)  # (2, 4n) 1st, 2nd nodes along -normal

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError(f"grid needs n >= 4 cells per side, got {self.n}")
        n = self.n
        object.__setattr__(self, "h", 1.0 / n)

        # walk the boundary counterclockwise from (0,0)
        k = np.arange(n)
        ix = np.concatenate([k, np.full(n, n), n - k, np.zeros(n, dtype=int)])
        iy = np.concatenate([np.zeros(n, dtype=int), k, np.full(n, n), n - k])
        nodes = iy * (n + 1) + ix
        s = np.arange(4 * n) * self.h

        normals = np.zeros((4 * n, 2), dtype=int)
        normals[0:n] = (0, -1)
        normals[n:2 * n] = (1, 0)
        normals[2 * n:3 * n] = (0, 1)
        normals[3 * n:4 * n] = (-1, 0)
        # corners take the preceding side's normal
        normals[0] = (-1, 0)
        normals[n] = (0, -1)
        normals[2 * n] = (1, 0)
        normals[3 * n] = (0, 1)
        inward = np.stack([(iy - j * normals[:, 1]) * (n + 1) + ix - j * normals[:, 0]
                           for j in (1, 2)])

        for name, arr in (("boundary_nodes", nodes), ("boundary_s", s),
                          ("boundary_normals", normals), ("boundary_inward", inward)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def num_nodes(self) -> int:
        return (self.n + 1) ** 2

    @property
    def num_boundary(self) -> int:
        return 4 * self.n

    def node_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (x, y) coordinate arrays over all nodes, node order."""
        axis = np.linspace(0.0, 1.0, self.n + 1)
        X, Y = np.meshgrid(axis, axis, indexing="xy")
        return X.ravel(), Y.ravel()


def make_grid(n_cells_per_side: int) -> Grid2D:
    """Build the discrete unit square with ``n_cells_per_side`` cells per side."""
    return Grid2D(int(n_cells_per_side))


@dataclass(frozen=True)
class ArcMask:
    """Accessible boundary arc [s0, s1) with a per-node membership flag.

    ``s1`` may exceed 4 to wrap past the walk origin; the arc length
    ``s1 - s0`` must lie in (0, 4].
    """

    s0: float
    s1: float
    flags: np.ndarray  # (4n,) bool, walk order

    def __post_init__(self) -> None:
        self.flags.flags.writeable = False

    @property
    def length(self) -> float:
        return self.s1 - self.s0


def arc_mask(grid: Grid2D, s0: float, s1: float) -> ArcMask:
    """Flag the boundary nodes whose walk parameter lies in [s0, s1)."""
    length = s1 - s0
    if not 0.0 < length <= 4.0:
        raise ValueError(f"arc length must be in (0, 4], got {length}")
    if not 0.0 <= s0 < 4.0:
        raise ValueError(f"arc start must be in [0, 4), got {s0}")
    # small slack keeps node-on-endpoint decisions stable under rounding
    rel = np.mod(grid.boundary_s - s0, 4.0)
    flags = rel < length - 1e-9 if length < 4.0 else np.ones(grid.num_boundary, dtype=bool)
    if flags.sum() < 2:
        raise ValueError("arc must contain at least 2 boundary nodes")
    return ArcMask(float(s0), float(s1), flags)


def full_mask(grid: Grid2D) -> ArcMask:
    """Mask flagging the whole boundary."""
    return arc_mask(grid, 0.0, 4.0)


def check_field(a: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Validate a nodal scalar field: length (n+1)^2, all finite."""
    a = np.asarray(a, dtype=float)
    if a.shape != (grid.num_nodes,):
        raise ValueError(f"field length {a.shape} does not match grid ({grid.num_nodes},)")
    if not np.isfinite(a).all():
        raise ValueError("field contains non-finite values")
    return a


def check_trace(g: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Validate a boundary trace: length 4n, all finite."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.num_boundary,):
        raise ValueError(f"trace length {g.shape} does not match grid ({grid.num_boundary},)")
    if not np.isfinite(g).all():
        raise ValueError("trace contains non-finite values")
    return g


def boundary_integral(g: np.ndarray, mask: ArcMask, grid: Grid2D) -> float:
    """Arc integral of a boundary trace.

    Every flagged node carries weight h (the cyclic composite-trapezoid
    rule: on the closed curve interior-of-side nodes and corners all weigh
    h, so complementary arcs add up to the full-boundary integral exactly).
    Second order for integrands continuous along the walk; an integrand
    jumping at an arc endpoint costs O(h) there.
    """
    g = check_trace(g, grid)
    return float(grid.h * g[mask.flags].sum())


def interior_integral(a: np.ndarray, grid: Grid2D) -> float:
    """Tensor-product trapezoidal rule for a nodal field over the unit square."""
    a = check_field(a, grid)
    w = np.full(grid.n + 1, grid.h)
    w[0] = w[-1] = 0.5 * grid.h
    A = a.reshape(grid.n + 1, grid.n + 1)
    return float(w @ A @ w)


def trace_to_field(g: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Embed a boundary trace into a full nodal field (interior zero)."""
    g = check_trace(g, grid)
    out = np.zeros(grid.num_nodes)
    out[grid.boundary_nodes] = g
    return out
