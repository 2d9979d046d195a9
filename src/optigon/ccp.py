"""Sequential convex optimization over the difference-of-convex program.

Starting from a feasible polygon, each outer iteration rewrites the
triangle-area rows of the n-gon's cone template at the current iterate,
solves the resulting convex restriction with the cone solver, and accepts
the optimum (pure ascent, no line search). The loop stops when the
relative step ||z_k - z_{k-1}|| / ||z_k|| falls below epsilon. Every
iterate is feasible for the original program and the objective never
decreases beyond solver noise; both are enforced at runtime.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field

import numpy as np

from . import verification
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
    "StepNorm",
    "default_initial_polygon",
    "maximize_area",
    "run_sweep",
    "step",
]

log = logging.getLogger("optigon.ccp")


class StepNorm(enum.Enum):
    EUCLIDEAN = "euclidean"
    MAX_ABS = "max_abs"


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
    record_trace: bool = True
    step_norm: StepNorm = StepNorm.EUCLIDEAN
    tol_feas: float = 1e-8
    warm_start: bool = True
    verify_iterates: bool = True

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
    structure: verification.StructureReport | None = None


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


def step(
    template: ConeTemplate,
    z_k: np.ndarray,
    cfg: CcpConfig,
    warm_start: np.ndarray | None = None,
) -> tuple[np.ndarray, SolverResult]:
    """One outer iteration: solve the convex restriction built at z_k.

    Raises SubproblemFailure unless the subproblem reached optimality.
    """
    result = solve(template.at(z_k), cfg.solver, warm_start=warm_start)
    if result.status is SolverStatus.INFEASIBLE:
        # restrictions at feasible points are always feasible; this is a bug
        raise SubproblemFailure(
            "subproblem reported infeasible; restriction was built at an "
            "infeasible reference point",
            result,
        )
    if result.status is not SolverStatus.OPTIMAL:
        raise SubproblemFailure(
            f"subproblem solve failed with status {result.status.value} "
            f"(primal residual {result.max_primal_residual:.2e}, "
            f"gap {result.duality_gap:.2e})",
            result,
        )
    return result.primal, result


def maximize_area(
    n: int,
    cfg: CcpConfig | None = None,
    initial: Polygon | None = None,
) -> CcpResult:
    """Run the outer loop for an n-gon and return the final polygon.

    The default initial iterate is the pendant-vertex polygon. A supplied
    initial polygon must be feasible within cfg.tol_feas.
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
        initial.validate(cfg.tol_feas)
    z = polygon_to_vector(initial)
    report = template.evaluate(z)
    if report.min_residual() < -cfg.tol_feas:
        raise InfeasibleInitial(
            f"initial polygon violates the program by {-report.min_residual():.3e}"
        )

    area_cap = upper_bound(n) + 10.0 * cfg.solver.tol_solver
    slack = 10.0 * cfg.solver.tol_solver
    trace = CcpTrace()
    _verify_iterate(_record(trace, template, k=0, z=z, rel_step=None, solver=None), cfg, n)

    status = CcpStatus.OUTER_LIMIT
    message = ""
    k = 0
    objective_prev = report.objective
    area_prev = area(initial)
    while k < cfg.max_outer_iterations:
        try:
            z_next, solver_result = step(
                template, z, cfg, warm_start=z if cfg.warm_start else None
            )
        except SubproblemFailure as exc:
            status = CcpStatus.SUBPROBLEM_FAILURE
            message = str(exc)
            log.warning("n=%d: %s", n, message)
            break
        k += 1
        rel = _relative_step(z_next, z, cfg.step_norm)
        z = z_next

        rec = _record(trace, template, k=k, z=z, rel_step=rel, solver=solver_result)
        # ascent, boundedness, and feasibility hold up to solver noise;
        # violations indicate a solver or formulation defect. They are checked
        # before the structure check, which rejects a polygon that is not small
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
        _verify_iterate(rec, cfg, n)
        objective_prev = rec.objective
        area_prev = rec.area
        log.info(
            "n=%d k=%d area=%.10f rel_step=%.3e solver_iters=%d",
            n, k, rec.area, rel, solver_result.iterations,
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
        trace=trace if cfg.record_trace else None,
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
            results.append(
                CcpResult(
                    n=n,
                    polygon=None,
                    area=float("nan"),
                    iterations=0,
                    status=CcpStatus.SUBPROBLEM_FAILURE,
                    trace=None,
                    message=str(exc),
                )
            )
    return results


def _relative_step(z_new: np.ndarray, z_old: np.ndarray, norm: StepNorm) -> float:
    if norm is StepNorm.EUCLIDEAN:
        denom = float(np.linalg.norm(z_new))
        num = float(np.linalg.norm(z_new - z_old))
    else:
        denom = float(np.abs(z_new).max())
        num = float(np.abs(z_new - z_old).max())
    return num / max(denom, 1e-300)


def _record(trace, template, *, k, z, rel_step, solver) -> IterateRecord:
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
    )
    trace.records.append(rec)
    return rec


def _verify_iterate(rec: IterateRecord, cfg: CcpConfig, n: int) -> None:
    if cfg.record_trace and cfg.verify_iterates and n % 2 == 0 and n >= 6:
        rec.structure = verification.verify_structure(
            vector_to_polygon(rec.z, n), tol=verification.TOL_INTERMEDIATE
        )
