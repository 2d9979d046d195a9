"""Largest-area polygons of unit diameter via sequential convex optimization.

The maximal-area problem for an n-gon of unit diameter is a nonconvex
quadratically constrained program. This package rewrites it as a
difference-of-convex program, repeatedly solves tangent-linearized convex
restrictions with an in-house second-order-cone interior-point solver, and
verifies the structure of the optima (pendant-cycle unit-distance graph,
axial symmetry, unit chords).
"""

from .ccp import (
    CcpConfig,
    CcpResult,
    CcpStatus,
    CcpTrace,
    maximize_area,
    run_sweep,
    step,
)
from .conic_solver import ConeProblem, SolverConfig, SolverResult, SolverStatus, lift, solve
from .errors import (
    AscentViolation,
    DiameterExceeded,
    DimensionMismatch,
    FeasibilityViolation,
    InfeasibleInitial,
    InvalidPolygon,
    InvariantViolation,
    NonConvexConstraint,
    OptigonError,
    SubproblemFailure,
    UpperBoundViolation,
)
from .formulation import (
    ConeTemplate,
    ConvexSubproblem,
    DcProgram,
    DecisionLayout,
    Family,
    build_program,
    build_restriction,
    evaluate,
    polygon_to_vector,
    vector_to_polygon,
)
from .geometry import (
    BoundsRecord,
    DiameterGraph,
    Polygon,
    area,
    bounds_record,
    build_pendant_polygon,
    build_regular_polygon,
    diameter,
    diameter_graph,
    load_polygon,
    pendant_area,
    polygon_from_json,
    polygon_to_json,
    regular_area,
    save_polygon,
    upper_bound,
)
from .reporting import export_run, render_svg, render_table_csv, render_table_text, sweep_row
from .verification import (
    StructureReport,
    check_axial_symmetry,
    check_pendant_cycle,
    check_unit_distance_chords,
    verify_structure,
)

__version__ = "0.1.0"
