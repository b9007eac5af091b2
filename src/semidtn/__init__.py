"""Simulate arc-confined boundary measurements for semilinear elliptic
problems and reconstruct the nonlinearity's coefficient fields from them."""

from .geometry import (ArcMask, Grid2D, arc_mask, boundary_integral, full_mask,
                       interior_integral, make_grid)
from .potential import PotentialSeries, sample_expression
from .sparse_linalg import SolverError, assemble, solve_spd
from .forward_solver import (NewtonError, SmallnessError, SolveReport, harmonic_extension,
                             solve_linear, solve_semilinear)
from .dtn import DtnSample, bump_trace, dtn_apply, measurement, normal_derivative
from .linearization import (CascadeState, measured_linearized_flux, nonlinearity_derivative,
                            run_cascade)
from .harmonic import arc_supported_family
from .reconstruction import (CoeffBasis, MomentSystem, ReconstructionResult, assemble_system,
                             make_basis, measured_moment, reconstruct_all, rel_l2_error)

__all__ = [
    "ArcMask", "Grid2D", "arc_mask", "boundary_integral", "full_mask",
    "interior_integral", "make_grid",
    "PotentialSeries", "sample_expression",
    "SolverError", "assemble", "solve_spd",
    "NewtonError", "SmallnessError", "SolveReport", "harmonic_extension",
    "solve_linear", "solve_semilinear",
    "DtnSample", "bump_trace", "dtn_apply", "measurement", "normal_derivative",
    "CascadeState", "measured_linearized_flux", "nonlinearity_derivative", "run_cascade",
    "arc_supported_family",
    "CoeffBasis", "MomentSystem", "ReconstructionResult",
    "assemble_system", "make_basis", "measured_moment", "reconstruct_all",
    "rel_l2_error",
]
