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
    """A harmonic field with its boundary trace, both made read-only."""

    field: np.ndarray
    trace: np.ndarray
    provenance: str

    def __post_init__(self) -> None:
        self.field.flags.writeable = False
        self.trace.flags.writeable = False


def arc_supported_family(mask: ArcMask, count: int,
                         grid: Grid2D) -> tuple[HarmonicMember, ...]:
    """Harmonic extensions of ``count`` boundary bumps supported in the arc.

    Two half-width scales (arc/4 and arc/8) alternate; centers are
    midpoint-equispaced within the inset interval that keeps each bump's
    support strictly inside the arc. Deterministic order: member i is wide
    at even i and narrow at odd i, at the (i // 2)-th center of its scale.
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
    members = []
    for i in range(count):
        width, n_scale = (narrow, count // 2) if i % 2 else (length / 4.0, (count + 1) // 2)
        inset0, inset1 = mask.s0 + width, mask.s1 - width
        center = (inset0 + (i // 2 + 0.5) * (inset1 - inset0) / n_scale) % 4.0
        trace = bump_trace(grid, center, width)
        trace[~mask.flags] = 0.0  # exact arc support even under rounding
        field = harmonic_extension(trace, grid)
        members.append(HarmonicMember(field, trace, f"bump(center={center:.6g},width={width:.6g})"))
    return tuple(members)
