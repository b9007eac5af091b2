"""Families of discrete harmonic test functions.

Arc-supported members harmonically extend smooth boundary bumps whose
support sits strictly inside the accessible arc. A finite family stands in for the
density of products of boundary-vanishing harmonic functions, with
moment-system conditioning reported downstream instead of any completeness
claim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dtn import bump_trace
from .forward_solver import harmonic_extension
from .geometry import ArcMask, Grid2D


@dataclass(frozen=True)
class HarmonicMember:
    field: np.ndarray
    trace: np.ndarray
    provenance: str


def arc_supported_family(mask: ArcMask, count: int,
                         grid: Grid2D) -> tuple[HarmonicMember, ...]:
    """Harmonic extensions of ``count`` boundary bumps supported in the arc.

    Two half-width scales (arc/4 and arc/8) alternate; centers are
    midpoint-equispaced within the inset interval that keeps each bump's
    support strictly inside the arc. Deterministic order: wide/narrow
    interleaved, centers increasing within each scale.
    """
    if count < 1:
        raise ValueError("family needs count >= 1")
    if mask.flags.sum() < 4:
        raise ValueError("arc too small: needs at least 4 boundary nodes")
    length = mask.length
    narrow = length / 8.0
    if 2.0 * narrow <= 3.0 * grid.h:
        raise ValueError("arc too small to host the narrowest bump (fewer than "
                         "3 nodes under support)")
    n_wide = (count + 1) // 2
    n_narrow = count - n_wide
    specs: list[tuple[float, float]] = []
    for n_members, width in ((n_wide, length / 4.0), (n_narrow, narrow)):
        inset0, inset1 = mask.s0 + width, mask.s1 - width
        for i in range(n_members):
            center = inset0 + (i + 0.5) * (inset1 - inset0) / n_members
            specs.append((center % 4.0, width))
    # interleave wide and narrow
    order: list[tuple[float, float]] = []
    for i in range(n_wide):
        order.append(specs[i])
        if i < n_narrow:
            order.append(specs[n_wide + i])
    members = []
    for center, width in order:
        trace = bump_trace(grid, center, width)
        trace[~mask.flags] = 0.0  # exact arc support even under rounding
        field = harmonic_extension(trace, grid)
        members.append(HarmonicMember(field, trace, f"bump(center={center:.6g},width={width:.6g})"))
    return tuple(members)
