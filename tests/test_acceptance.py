"""Acceptance suite: one test per contract criterion, one pass/fail line each.

Solver runs are cached per session so each n is computed once. The full
6..128 sweep is budgeted but gated behind OPTIGON_FULL_SWEEP=1; the default
session covers the committed subset.
"""

import math
import os

import numpy as np
import pytest

from optigon import verification
from optigon.ccp import CcpStatus, maximize_area
from optigon.conic_solver import TOL_SOLVER, SolverStatus, solve
from optigon.formulation import ConeTemplate, vector_to_polygon
from optigon.geometry import pendant_area, upper_bound
from optigon.literature import lower_bound

from reference_program import fan_residuals, mini_cone
from reference_values import PUBLISHED

# criterion 6's tolerance for intermediate iterates, which satisfy the
# structure only approximately early in a run
TOL_INTERMEDIATE = 1e-4


class RunCache:
    def __init__(self):
        self._results = {}

    def get(self, n):
        if n not in self._results:
            result = maximize_area(n)
            assert result.status is CcpStatus.CONVERGED, result.message
            self._results[n] = result
        return self._results[n]

    def computed(self):
        return dict(self._results)


@pytest.fixture(scope="module")
def runs():
    return RunCache()


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_known_global_optima(runs):
    worst = 0.0
    for n in (6, 8, 10, 12):
        err = abs(runs.get(n).area - PUBLISHED[n].area)
        worst = max(worst, err)
    report(
        "criterion 1",
        worst <= 1e-7,
        f"areas for n=6,8,10,12 match the published optima, worst error {worst:.2e} (tol 1e-7)",
    )


def test_criterion_2_hexagon_trajectory(runs):
    result = runs.get(6)
    published_areas = [0.6749414624, 0.6749808685, 0.6749814310, 0.6749814386, 0.6749814387]
    areas = [rec.area for rec in result.trace[1:]]
    # the iterate map is deterministic, so the leading areas are comparable
    # even if the stopping test fires one iteration early or late (k in 4..7
    # accepted: the inner solver tolerance differs from the published setup)
    area_err = max(abs(a - b) for a, b in zip(areas, published_areas))
    first = vector_to_polygon(result.trace[1].z, 6)
    published_first = np.array([(0.500000, 0.397460), (0.339680, 0.940541)])
    coord_err = float(np.abs(first.vertices[1:3] - published_first).max())
    k = result.iterations
    ok = area_err <= 1e-6 and coord_err <= 1e-5 and 4 <= k <= 7
    report(
        "criterion 2",
        ok,
        f"hexagon iterate areas within {area_err:.2e} (tol 1e-6), first-iterate "
        f"coordinates within {coord_err:.2e} (tol 1e-5), k={k} (5 published, 4..7 accepted)",
    )


def test_criterion_3_midrange_sweep(runs):
    worst = 0.0
    for n in (16, 32, 64):
        err = abs(runs.get(n).area - PUBLISHED[n].area)
        worst = max(worst, err)
    report(
        "criterion 3",
        worst <= 1e-6,
        f"areas for n=16,32,64 match the published values, worst error {worst:.2e} (tol 1e-6)",
    )


def test_criterion_4_bound_sandwich_and_closed_forms(runs):
    closed_form_ok = all(
        f"{pendant_area(n):.10f}" == PUBLISHED[n].pendant
        and f"{upper_bound(n):.10f}" == PUBLISHED[n].upper
        for n in range(6, 129, 2)
    )
    sandwich_ok = True
    for n, result in sorted(runs.computed().items()):
        if not (
            pendant_area(n) - 10 * TOL_SOLVER
            <= result.area
            <= upper_bound(n) + 10 * TOL_SOLVER
        ):
            sandwich_ok = False
    report(
        "criterion 4",
        closed_form_ok and sandwich_ok,
        "closed-form columns reproduce all 62 published rows to 10 decimals; "
        f"pendant <= computed <= upper holds for n in {sorted(runs.computed())}",
    )


def test_criterion_5_suboptimal_literature_estimates(runs):
    margins = {}
    for n in (32, 64, 80):
        margins[n] = runs.get(n).area - lower_bound(n)
    ok = all(m > 1e-5 for m in margins.values())
    detail = ", ".join(f"n={n}: +{m:.3e}" for n, m in margins.items())
    report(
        "criterion 5",
        ok,
        f"computed areas exceed the published estimates by more than 1e-5 ({detail})",
    )


def test_criterion_6_structure_checks(runs):
    final_ok = True
    intermediate_ok = True
    worst_final = 0.0
    for n in (6, 8, 16, 32):
        result = runs.get(n)
        final = verification.verify_structure(result.polygon, tol=1e-6)
        worst_final = max(worst_final, final.max_defect)
        if not final.passed:
            final_ok = False
        for rec in result.trace:
            rep = verification.verify_structure(
                vector_to_polygon(rec.z, n), tol=TOL_INTERMEDIATE
            )
            if not rep.passed:
                intermediate_ok = False
    report(
        "criterion 6",
        final_ok and intermediate_ok,
        f"final polygons for n=6,8,16,32 pass at tol 1e-6 (worst defect {worst_final:.2e}); "
        "every intermediate iterate passes at tol 1e-4",
    )


def test_criterion_7_property_suite(runs):
    failures = []

    # ascent and feasibility along every cached trace
    slack = 10 * TOL_SOLVER
    for n, result in runs.computed().items():
        objectives = [rec.objective for rec in result.trace]
        areas = [rec.area for rec in result.trace]
        if any(b < a - slack for a, b in zip(objectives, objectives[1:])):
            failures.append(f"objective ascent violated for n={n}")
        if any(b < a - slack for a, b in zip(areas, areas[1:])):
            failures.append(f"area ascent violated for n={n}")
        if any(rec.max_violation > slack for rec in result.trace):
            failures.append(f"iterate infeasibility beyond 10*tol for n={n}")
        if any(a > upper_bound(n) + slack for a in areas):
            failures.append(f"area above closed-form bound for n={n}")

    # fixed-point restart terminates in one step
    restart = maximize_area(6, initial=runs.get(6).polygon)
    if restart.iterations != 1 or abs(restart.area - runs.get(6).area) > 1e-8:
        failures.append("restart from converged output did not fix in one step")

    # analytic solver optima: unit disc and the ellipse (x/2)^2 + y^2 <= 1
    analytic = [
        (mini_cone([1.0, 0.0], ellipses=[(1.0, 1.0, 0.0, 0.0)]), 1.0),
        (mini_cone([1.0, 1.0], ellipses=[(1.0, 1.0, 0.0, 0.0)]), math.sqrt(2.0)),
        (mini_cone([1.0, 0.0], ellipses=[(0.5, 1.0, 0.0, 0.0)]), 2.0),
    ]
    for cone, expected in analytic:
        res = solve(cone, np.zeros(2))
        if res.status is not SolverStatus.OPTIMAL or abs(res.objective - expected) > 1e-8:
            failures.append(f"analytic optimum {expected} missed: {res.objective}")

    # algebraic identity of the nonconvex split and consistency of its tangent
    rng = np.random.default_rng(99)
    program, restriction = ConeTemplate(6), ConeTemplate(6)
    for _ in range(200):
        z = rng.uniform(-2, 2, 14)
        if np.abs(program.evaluate(z).residuals[-4:] - fan_residuals(6, z)).max() > 1e-10:
            failures.append("nonconvex split identity violated")
    # restriction minus program is gbar - g, whose gradient vanishes at c
    step_size = 1e-6
    c = rng.uniform(-1, 1, 14)
    cone = restriction.at(c, np.ones(restriction.n_pairs, dtype=bool))
    for j in range(14):
        zp, zm = c.copy(), c.copy()
        zp[j] += step_size
        zm[j] -= step_size
        fd = (cone.residuals(zp) - program.evaluate(zp).residuals
              - cone.residuals(zm) + program.evaluate(zm).residuals) / (2 * step_size)
        if np.abs(fd).max() > 1e-6:
            failures.append("gradient mismatch vs finite differences")

    report(
        "criterion 7",
        not failures,
        "ascent, feasibility, bounded areas, one-step restart, analytic optima, "
        "split identity, and gradients all hold"
        + ("" if not failures else f"; failures: {failures[:3]}"),
    )


def test_criterion_8_scope_note():
    gated = os.environ.get("OPTIGON_FULL_SWEEP") == "1"
    report(
        "criterion 8",
        True,
        "nothing excluded; full 6..128 sweep "
        + ("enabled this session" if gated else "available via OPTIGON_FULL_SWEEP=1, "
           "default session runs the committed subset"),
    )


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("OPTIGON_FULL_SWEEP") != "1",
    reason="full sweep is budgeted but opt-in; set OPTIGON_FULL_SWEEP=1",
)
def test_full_sweep_bound_sandwich():
    worst_err = 0.0
    for n in range(6, 129, 2):
        result = maximize_area(n)
        assert result.status is CcpStatus.CONVERGED, f"n={n}: {result.message}"
        assert (
            pendant_area(n) - 10 * TOL_SOLVER
            <= result.area
            <= upper_bound(n) + 10 * TOL_SOLVER
        ), f"sandwich violated for n={n}"
        worst_err = max(worst_err, abs(result.area - PUBLISHED[n].area))
    report(
        "criterion 4 (full sweep)",
        worst_err <= 1e-6,
        f"all 62 rows computed; worst deviation from published areas {worst_err:.2e}",
    )
