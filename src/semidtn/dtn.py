"""Partial Dirichlet-to-Neumann measurements: normal derivative extraction,
arc-restricted inputs and outputs, the opaque measurement map the inversion
reads, and the smooth bump family used as boundary data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward_solver import SolveReport, solve_semilinear
from .geometry import ArcMask, Grid2D, check_field, check_trace
from .potential import PotentialSeries


class SupportError(ValueError):
    """Boundary data does not vanish outside the accessible arc."""


@dataclass(frozen=True)
class DtnSample:
    """One measurement: arc-masked normal-derivative trace and solve report."""

    output: np.ndarray
    report: SolveReport


def normal_derivative(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Outward normal derivative on the boundary walk.

    Second-order one-sided stencil (3 u0 - 4 u1 + u2) / (2h) with u1, u2 the
    first and second nodes inward along -normal; exact for quadratics.
    Corners differentiate along the side convention fixed in geometry.
    """
    return _flux(check_field(u, grid), grid)


def _flux(u: np.ndarray, grid: Grid2D) -> np.ndarray:
    """``normal_derivative`` of a field already known to be valid."""
    one, two = grid.boundary_inward
    return (3.0 * u[grid.boundary_nodes] - 4.0 * u[one] + u[two]) / (2.0 * grid.h)


def check_support(f: np.ndarray, mask: ArcMask, grid: Grid2D) -> np.ndarray:
    """Require the trace to vanish exactly outside the arc."""
    f = check_trace(f, grid)
    off = f[~mask.flags]
    if off.size and np.abs(off).max() != 0.0:
        raise SupportError("boundary data must vanish outside the accessible arc")
    return f


def dtn_apply(P: PotentialSeries, f: np.ndarray, mask: ArcMask, grid: Grid2D) -> DtnSample:
    """Measure the normal derivative on the arc for arc-supported data f.

    Solves the semilinear problem with data f, extracts the normal
    derivative, and zeroes it outside the arc (data and measurement both
    confined to the arc).
    """
    f = check_support(f, mask, grid)
    u, report = solve_semilinear(P, f, grid)
    out = _flux(u, grid)  # the solver's own field: no check
    out[~mask.flags] = 0.0
    return DtnSample(out, report)


def measurement(P: PotentialSeries, mask: ArcMask, grid: Grid2D, noise_sigma: float = 0.0,
                seed: int = 0):
    """The opaque measurement map ``measure(trace) -> flux`` of the series P
    on the arc: ``dtn_apply``'s output. With ``noise_sigma`` > 0 each call
    adds Gaussian noise of scale noise_sigma * max|flux|, drawn in call order
    from one generator seeded with ``seed`` (only when that scale is > 0),
    and zeroes it again outside the arc. Each call looks ``dtn_apply`` up in
    this module, so that a wrapper installed here sees every measurement.
    """
    if not 0.0 <= noise_sigma < math.inf:
        raise ValueError("noise_sigma must be finite and >= 0")
    rng = np.random.default_rng(seed)

    def measure(trace: np.ndarray) -> np.ndarray:
        out = dtn_apply(P, trace, mask, grid).output
        if noise_sigma > 0.0:
            scale = noise_sigma * float(np.max(np.abs(out)))
            if scale > 0.0:
                out += rng.normal(0.0, scale, out.shape)
                out[~mask.flags] = 0.0
        return out

    return measure


def bump_profile(t: np.ndarray) -> np.ndarray:
    """Smooth compactly supported bump: exp(1 - 1/(1-t^2)) on |t| < 1, else 0."""
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - t[inside] ** 2))
    return out


def bump_trace(grid: Grid2D, center: float, width: float, amplitude: float = 1.0) -> np.ndarray:
    """Boundary trace of a bump of half-width ``width`` centered at walk
    parameter ``center`` (wraps around the walk origin)."""
    if not width > 0.0:
        raise ValueError("bump width must be positive")
    d = np.mod(grid.boundary_s - center + 2.0, 4.0) - 2.0  # signed circular distance
    return amplitude * bump_profile(d / width)
