"""Sequential convex optimization over the difference-of-convex program.

Starting from a feasible polygon, each outer iteration rewrites the
triangle-area rows of the n-gon's cone template at the current iterate,
solves the resulting convex restriction with the cone solver, and accepts
the optimum (pure ascent, no line search). The loop stops when the
relative step ||z_k - z_{k-1}|| / ||z_k|| falls below epsilon. Every
iterate is feasible for the original program and the objective never
decreases beyond solver noise; both are enforced at runtime.

Distance screening: of the ~n^2/2 pairwise distance constraints only about
n reach unit distance near an optimum, so each restriction is solved with
the distance blocks of the pairs at least 1 - SCREEN_MARGIN apart at the
current iterate only (every other constraint family is always kept). That
cone is a relaxation of the full restriction. A guard then computes every
pair's distance at the candidate; if a dropped pair exceeds 1, it is added
back, together with the pairs now within the margin, and the restriction is
solved again. Distance constraints are not linearized, so a candidate that
passes the guard satisfies the full restriction and is its optimum.

Settings: epsilon alone (default EPSILON). Every solve of a run uses the
tolerance `solver_tolerance(epsilon)`, min(TOL_SOLVER, epsilon / 100),
tight enough that solver noise cannot trigger the stopping test. The
iteration caps are the constants MAX_OUTER_ITERATIONS here and
`conic_solver.MAX_ITERATIONS`. Every run records its iterates and starts
each subproblem's solve at the current iterate, which is feasible for it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .conic_solver import TOL_SOLVER, SolverResult, SolverStatus, solve
from .errors import (
    AscentViolation,
    FeasibilityViolation,
    InfeasibleInitial,
    SubproblemFailure,
    UpperBoundViolation,
)
from .formulation import ConeTemplate, polygon_to_vector, vector_to_polygon
from .geometry import (
    TOL_FEAS, Polygon, area, build_pendant_polygon, require_positive_real, upper_bound,
)

__all__ = [
    "CcpResult",
    "CcpStatus",
    "EPSILON",
    "IterateRecord",
    "MAX_OUTER_ITERATIONS",
    "SCREEN_MARGIN",
    "StepResult",
    "failed_result",
    "maximize_area",
    "run_sweep",
    "solver_tolerance",
    "step",
]

log = logging.getLogger("optigon.ccp")

# a distance pair enters a restriction when it is at least 1 - SCREEN_MARGIN
# apart at the reference point; a margin >= 1 keeps every pair
SCREEN_MARGIN = 0.02
# outer iterations per run before OUTER_LIMIT
MAX_OUTER_ITERATIONS = 1000
# the default relative-step stopping threshold
EPSILON = 1e-5


class CcpStatus(enum.Enum):
    CONVERGED = "converged"
    OUTER_LIMIT = "outer_limit"
    SUBPROBLEM_FAILURE = "subproblem_failure"
    FAILED = "failed"  # the run raised, or its worker process died


@dataclass
class IterateRecord:
    k: int
    z: np.ndarray
    area: float
    objective: float
    rel_step: float | None
    solver_iterations: int
    max_violation: float
    pairs_kept: int = 0  # distance pairs in the cone of the step's final solve
    resolves: int = 0  # solves repeated because a dropped pair was violated


@dataclass
class CcpResult:
    n: int
    polygon: Polygon | None
    area: float
    iterations: int
    status: CcpStatus
    trace: list[IterateRecord] | None
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status is CcpStatus.CONVERGED


class StepResult(NamedTuple):
    """The result of the step's final solve, whose primal is the next
    iterate, the distance pairs in that solve's cone, and the solves
    repeated by the guard."""

    solver: SolverResult
    pairs_kept: int
    resolves: int


def step(template: ConeTemplate, z_k: np.ndarray, tol_solver: float = TOL_SOLVER) -> StepResult:
    """One outer iteration: solve the convex restriction built at z_k on the
    distance pairs near unit distance, re-solving with any dropped pair the
    candidate violates until none is (see the module docstring). Each solve
    gets `template.at(z_k, keep)`, a new cone built for the current mask,
    and starts at z_k, with tolerance tol_solver.

    Raises SubproblemFailure, with the solver's cause, unless every solve
    reached optimality.
    """
    keep = _near_unit(template.distance_sq(z_k))
    resolves = 0
    while True:
        result = solve(template.at(z_k, keep), z_k, tol_solver)
        if result.status is not SolverStatus.OPTIMAL:
            cause = f": {result.cause}" if result.cause else ""
            raise SubproblemFailure(
                f"subproblem solve failed with status {result.status.value}{cause} "
                f"(primal residual {result.max_primal_residual:.2e}, "
                f"gap {result.duality_gap:.2e})",
                result,
            )
        d2 = template.distance_sq(result.primal)
        violated = ~keep & (d2 > 1.0)
        if not violated.any():
            return StepResult(result, int(keep.sum()), resolves)
        keep |= violated | _near_unit(d2)
        resolves += 1


def _near_unit(d2: np.ndarray) -> np.ndarray:
    return np.sqrt(d2) >= 1.0 - SCREEN_MARGIN


def solver_tolerance(epsilon: float) -> float:
    """The interior-point tolerance of a run with stopping threshold
    epsilon, min(TOL_SOLVER, epsilon / 100): tighter than epsilon, so that
    solver noise cannot trigger the stopping test. Raises ValueError unless
    epsilon is finite and positive and epsilon / 100 does not round to 0."""
    require_positive_real("epsilon", epsilon)
    tol_solver = min(TOL_SOLVER, epsilon / 100.0)
    if tol_solver == 0.0:
        raise ValueError(
            f"epsilon must be large enough that epsilon / 100 is positive, got {epsilon!r}"
        )
    return tol_solver


def maximize_area(
    n: int,
    epsilon: float = EPSILON,
    initial: Polygon | None = None,
) -> CcpResult:
    """Run the outer loop for an n-gon and return the final polygon.

    n must be even and >= 6, and solver_tolerance must accept epsilon
    (ValueError otherwise). The default initial iterate is the
    pendant-vertex polygon. A supplied initial polygon must be feasible
    within TOL_FEAS.
    """
    tol_solver = solver_tolerance(epsilon)
    template = ConeTemplate(n)
    if initial is None:
        initial = build_pendant_polygon(n)
    else:
        if initial.n != n:
            raise InfeasibleInitial(f"initial polygon has {initial.n} vertices, expected {n}")
        initial.validate()
    z = polygon_to_vector(initial)
    trace: list[IterateRecord] = []
    start = _record(trace, template, k=0, z=z, rel_step=None)
    if start.max_violation > TOL_FEAS:
        raise InfeasibleInitial(
            f"initial polygon violates the program by {start.max_violation:.3e}"
        )

    slack = 10.0 * tol_solver
    area_cap = upper_bound(n) + slack

    status = CcpStatus.OUTER_LIMIT
    message = ""
    k = 0
    prev = start
    while k < MAX_OUTER_ITERATIONS:
        try:
            solver_result, pairs_kept, resolves = step(template, z, tol_solver)
        except SubproblemFailure as exc:
            status = CcpStatus.SUBPROBLEM_FAILURE
            message = str(exc)
            log.warning("n=%d: %s", n, message)
            break
        k += 1
        z_next = solver_result.primal
        rel = float(np.linalg.norm(z_next - z)) / max(float(np.linalg.norm(z_next)), 1e-300)
        z = z_next

        rec = _record(
            trace, template, k=k, z=z, rel_step=rel,
            solver_iterations=solver_result.iterations, pairs_kept=pairs_kept, resolves=resolves,
        )
        # ascent, boundedness, and feasibility hold up to solver noise;
        # violations indicate a solver or formulation defect
        if rec.objective < prev.objective - slack or rec.area < prev.area - slack:
            raise AscentViolation(
                f"ascent violated at iteration {k}: objective "
                f"{prev.objective} -> {rec.objective}, area {prev.area} -> {rec.area}",
                k, z,
            )
        if rec.area > area_cap:
            raise UpperBoundViolation(
                f"area {rec.area} at iteration {k} exceeds the closed-form upper "
                f"bound {area_cap}",
                k, z,
            )
        if rec.max_violation > slack:
            raise FeasibilityViolation(
                f"iterate {k} infeasible beyond solver noise: {rec.max_violation:.3e}",
                k, z,
            )
        prev = rec
        log.info(
            "n=%d k=%d area=%.10f rel_step=%.3e solver_iters=%d pairs=%d resolves=%d",
            n, k, rec.area, rel, solver_result.iterations, pairs_kept, resolves,
        )
        if rel <= epsilon:
            status = CcpStatus.CONVERGED
            break

    return CcpResult(
        n=n,
        polygon=vector_to_polygon(z, n),
        area=trace[-1].area,
        iterations=k,
        status=status,
        trace=trace,
        message=message,
    )


def run_sweep(n_values, epsilon: float = EPSILON) -> list[CcpResult]:
    """Independent runs for each n; failures are isolated per entry. An
    epsilon that solver_tolerance refuses raises ValueError before any run."""
    solver_tolerance(epsilon)
    results = []
    for n in n_values:
        try:
            results.append(maximize_area(n, epsilon))
        except Exception as exc:  # noqa: BLE001 - sweep must never abort
            log.warning("n=%d failed: %s", n, exc)
            results.append(failed_result(n, str(exc)))
    return results


def failed_result(n: int, message: str) -> CcpResult:
    """The sweep entry of a run that raised or whose process died."""
    return CcpResult(
        n=n,
        polygon=None,
        area=float("nan"),
        iterations=0,
        status=CcpStatus.FAILED,
        trace=None,
        message=message,
    )


def _record(
    trace, template, *, k, z, rel_step, solver_iterations=0, pairs_kept=0, resolves=0
) -> IterateRecord:
    report = template.evaluate(z)
    polygon = vector_to_polygon(z, template.n)
    rec = IterateRecord(
        k=k,
        z=z.copy(),
        area=area(polygon),
        objective=report.objective,
        rel_step=rel_step,
        solver_iterations=solver_iterations,
        max_violation=max(0.0, -report.min_residual()),
        pairs_kept=pairs_kept,
        resolves=resolves,
    )
    trace.append(rec)
    return rec
