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

Settings: epsilon and the outer-iteration cap here, the tolerance and
iteration cap of `SolverConfig`. Every run records its iterates and
warm-starts each subproblem at the current iterate.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .conic_solver import SolverConfig, SolverResult, SolverStatus, solve
from .errors import (
    AscentViolation,
    FeasibilityViolation,
    InfeasibleInitial,
    SubproblemFailure,
    UpperBoundViolation,
)
from .formulation import ConeTemplate, polygon_to_vector, vector_to_polygon
from .geometry import (
    TOL_FEAS,
    Polygon,
    area,
    build_pendant_polygon,
    build_regular_polygon,
    upper_bound,
)

__all__ = [
    "CcpConfig",
    "CcpResult",
    "CcpStatus",
    "CcpTrace",
    "IterateRecord",
    "SCREEN_MARGIN",
    "StepResult",
    "default_initial_polygon",
    "failed_result",
    "maximize_area",
    "run_sweep",
    "step",
]

log = logging.getLogger("optigon.ccp")

# a distance pair enters a restriction when it is at least 1 - SCREEN_MARGIN
# apart at the reference point; a margin >= 1 keeps every pair
SCREEN_MARGIN = 0.02


class CcpStatus(enum.Enum):
    CONVERGED = "converged"
    OUTER_LIMIT = "outer_limit"
    SUBPROBLEM_FAILURE = "subproblem_failure"


@dataclass
class CcpConfig:
    """Outer-loop controls; epsilon is the relative-step stopping threshold."""

    epsilon: float = 1e-5
    max_outer_iterations: int = 1000
    solver: SolverConfig = field(default_factory=SolverConfig)

    def validate(self) -> None:
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        self.solver.validate()
        # otherwise solver noise can trigger the outer stopping test
        if self.solver.tol_solver > self.epsilon / 100.0:
            raise ValueError(
                f"solver tolerance {self.solver.tol_solver} must be <= epsilon/100 "
                f"= {self.epsilon / 100.0}"
            )


@dataclass
class IterateRecord:
    k: int
    z: np.ndarray
    area: float
    objective: float
    rel_step: float | None
    solver_status: str
    solver_iterations: int
    max_violation: float
    pairs_kept: int = 0  # distance pairs in the cone of the step's final solve
    resolves: int = 0  # solves repeated because a dropped pair was violated


@dataclass
class CcpTrace:
    records: list[IterateRecord] = field(default_factory=list)

    def areas(self) -> list[float]:
        return [rec.area for rec in self.records]

    def objectives(self) -> list[float]:
        return [rec.objective for rec in self.records]

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class CcpResult:
    n: int
    polygon: Polygon | None
    area: float
    iterations: int
    status: CcpStatus
    trace: CcpTrace | None
    message: str = ""

    @property
    def converged(self) -> bool:
        return self.status is CcpStatus.CONVERGED


def default_initial_polygon(n: int) -> Polygon:
    """Pendant-vertex polygon for even n >= 6, regular polygon otherwise."""
    if n >= 6 and n % 2 == 0:
        return build_pendant_polygon(n)
    return build_regular_polygon(n)


class StepResult(NamedTuple):
    """The next iterate, the result of the step's final solve, the distance
    pairs in that solve's cone, and the solves repeated by the guard."""

    z: np.ndarray
    solver: SolverResult
    pairs_kept: int
    resolves: int


def step(
    template: ConeTemplate,
    z_k: np.ndarray,
    cfg: CcpConfig,
    warm_start: np.ndarray | None = None,
) -> StepResult:
    """One outer iteration: solve the convex restriction built at z_k on the
    distance pairs near unit distance, re-solving with any dropped pair the
    candidate violates until none is (see the module docstring).

    Raises SubproblemFailure unless every solve reached optimality.
    """
    template.at(z_k)
    keep = _near_unit(template.distance_sq(z_k))
    resolves = 0
    while True:
        result = solve(template.screened(keep), cfg.solver, warm_start=warm_start)
        if result.status is not SolverStatus.OPTIMAL:
            raise SubproblemFailure(
                f"subproblem solve failed with status {result.status.value} "
                f"(primal residual {result.max_primal_residual:.2e}, "
                f"gap {result.duality_gap:.2e})",
                result,
            )
        d2 = template.distance_sq(result.primal)
        violated = ~keep & (d2 > 1.0)
        if not violated.any():
            return StepResult(result.primal, result, int(keep.sum()), resolves)
        keep |= violated | _near_unit(d2)
        resolves += 1


def _near_unit(d2: np.ndarray) -> np.ndarray:
    return np.sqrt(d2) >= 1.0 - SCREEN_MARGIN


def maximize_area(
    n: int,
    cfg: CcpConfig | None = None,
    initial: Polygon | None = None,
) -> CcpResult:
    """Run the outer loop for an n-gon and return the final polygon.

    The default initial iterate is the pendant-vertex polygon. A supplied
    initial polygon must be feasible within TOL_FEAS.
    """
    cfg = cfg or CcpConfig()
    cfg.validate()
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")

    template = ConeTemplate(n)
    if initial is None:
        initial = default_initial_polygon(n)
    else:
        if initial.n != n:
            raise InfeasibleInitial(f"initial polygon has {initial.n} vertices, expected {n}")
        initial.validate(TOL_FEAS)
    z = polygon_to_vector(initial)
    report = template.evaluate(z)
    if report.min_residual() < -TOL_FEAS:
        raise InfeasibleInitial(
            f"initial polygon violates the program by {-report.min_residual():.3e}"
        )

    area_cap = upper_bound(n) + 10.0 * cfg.solver.tol_solver
    slack = 10.0 * cfg.solver.tol_solver
    trace = CcpTrace()
    _record(trace, template, k=0, z=z, rel_step=None, solver=None)

    status = CcpStatus.OUTER_LIMIT
    message = ""
    k = 0
    objective_prev = report.objective
    area_prev = area(initial)
    while k < cfg.max_outer_iterations:
        try:
            z_next, solver_result, pairs_kept, resolves = step(template, z, cfg, warm_start=z)
        except SubproblemFailure as exc:
            status = CcpStatus.SUBPROBLEM_FAILURE
            message = str(exc)
            log.warning("n=%d: %s", n, message)
            break
        k += 1
        rel = float(np.linalg.norm(z_next - z)) / max(float(np.linalg.norm(z_next)), 1e-300)
        z = z_next

        rec = _record(
            trace, template, k=k, z=z, rel_step=rel, solver=solver_result,
            pairs_kept=pairs_kept, resolves=resolves,
        )
        # ascent, boundedness, and feasibility hold up to solver noise;
        # violations indicate a solver or formulation defect
        if rec.objective < objective_prev - slack or rec.area < area_prev - slack:
            raise AscentViolation(
                f"ascent violated at iteration {k}: objective "
                f"{objective_prev} -> {rec.objective}, area {area_prev} -> {rec.area}",
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
        objective_prev = rec.objective
        area_prev = rec.area
        log.info(
            "n=%d k=%d area=%.10f rel_step=%.3e solver_iters=%d pairs=%d resolves=%d",
            n, k, rec.area, rel, solver_result.iterations, pairs_kept, resolves,
        )
        if rel <= cfg.epsilon:
            status = CcpStatus.CONVERGED
            break

    polygon = vector_to_polygon(z, n)
    return CcpResult(
        n=n,
        polygon=polygon,
        area=area(polygon),
        iterations=k,
        status=status,
        trace=trace,
        message=message,
    )


def run_sweep(n_values, cfg: CcpConfig | None = None) -> list[CcpResult]:
    """Independent runs for each n; failures are isolated per entry."""
    results = []
    for n in n_values:
        try:
            results.append(maximize_area(n, cfg))
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
        status=CcpStatus.SUBPROBLEM_FAILURE,
        trace=None,
        message=message,
    )


def _record(
    trace, template, *, k, z, rel_step, solver, pairs_kept=0, resolves=0
) -> IterateRecord:
    report = template.evaluate(z)
    polygon = vector_to_polygon(z, template.n)
    rec = IterateRecord(
        k=k,
        z=z.copy(),
        area=area(polygon),
        objective=report.objective,
        rel_step=rel_step,
        solver_status=solver.status.value if solver else "initial",
        solver_iterations=solver.iterations if solver else 0,
        max_violation=max(0.0, -report.min_residual()),
        pairs_kept=pairs_kept,
        resolves=resolves,
    )
    trace.records.append(rec)
    return rec
