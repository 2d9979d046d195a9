"""Largest-area polygons of unit diameter via sequential convex optimization.

The maximal-area problem for an n-gon of unit diameter is a nonconvex
quadratically constrained program. This package rewrites it as a
difference-of-convex program, repeatedly solves tangent-linearized convex
restrictions with an in-house second-order-cone interior-point solver, and
verifies the structure of the optima (pendant-cycle unit-distance graph,
axial symmetry, unit chords).
"""

from .ccp import (
    CcpResult,
    CcpStatus,
    maximize_area,
    run_sweep,
    step,
)
from .conic_solver import ConeProblem, SolverResult, SolverStatus, solve
from .errors import (
    AscentViolation,
    DimensionMismatch,
    FeasibilityViolation,
    InfeasibleInitial,
    InvalidPolygon,
    InvariantViolation,
    OptigonError,
    SubproblemFailure,
    UpperBoundViolation,
)
from .formulation import ConeTemplate, polygon_to_vector, vector_to_polygon
from .geometry import (
    Polygon,
    area,
    build_pendant_polygon,
    diameter,
    diameter_graph,
    load_polygon,
    pendant_area,
    polygon_from_json,
    polygon_to_json,
    upper_bound,
)
from .reporting import export_run, render_svg, render_table_csv, render_table_text
from .verification import StructureReport, verify_structure

__version__ = "0.1.0"
