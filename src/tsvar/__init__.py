"""Variational calculus on time scales.

Time scales (finite unions of closed intervals and points), delta/nabla
calculus on sampled grids, piecewise-linear epigraph extensions with
contingent epiderivatives, and solvers/verifiers for the direction-unified
Euler-Lagrange and isoperimetric necessary conditions.
"""

from . import errors
from .calculus import (
    GridFunction,
    delta_deriv,
    delta_integral,
    nabla_deriv,
    nabla_integral,
    read_grid_csv,
    shift_rho,
    shift_sigma,
    write_grid_csv,
)
from .epiderivative import (
    EpiCone,
    PLFunction,
    contingent_cone_epi,
    epiderivative_closed,
    epiderivative_liminf,
    extend,
    liminf_params,
)
from .lagrangian import Lagrangian, differentiate, evaluate, to_text
from .timescale import (
    PointClass,
    SampleGrid,
    Segment,
    TimeScale,
    grid_from_points,
    parse_timescale,
)
from .variational import (
    IsoProblem,
    Problem,
    Solution,
    VerifyReport,
    el_residual,
    functional_value,
    residual_column,
    solve,
    solve_iso,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Segment", "TimeScale", "PointClass", "SampleGrid",
    "grid_from_points", "parse_timescale",
    "GridFunction", "delta_deriv", "nabla_deriv", "shift_sigma", "shift_rho",
    "delta_integral", "nabla_integral", "read_grid_csv", "write_grid_csv",
    "PLFunction", "EpiCone", "extend", "epiderivative_closed",
    "epiderivative_liminf", "liminf_params", "contingent_cone_epi",
    "Lagrangian", "differentiate", "evaluate", "to_text",
    "Problem", "IsoProblem", "Solution", "VerifyReport",
    "functional_value", "el_residual", "residual_column",
    "solve", "solve_iso", "verify",
]
