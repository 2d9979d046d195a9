"""Cone lifting and the interior-point solver.

Analytic optima pin the solver on tiny problems; the restriction of the
hexagon program at the pendant start is cross-checked against an
independent grid-plus-coordinate-descent oracle on the symmetric slice.
"""

import logging
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import optigon
from optigon import ccp
from optigon.conic_solver import (
    SolverConfig,
    SolverStatus,
    _inv_mul,
    _mul,
    _Scaling,
    lift,
    solve,
)
from optigon.errors import NonConvexConstraint, SubproblemFailure
from optigon.formulation import (
    ConeTemplate,
    ConvexSubproblem,
    Family,
    LinearForm,
    RestrictionConstraint,
    build_program,
    build_restriction,
    polygon_to_vector,
)
from optigon.geometry import build_pendant_polygon

RNG = np.random.default_rng(7)


@dataclass(frozen=True)
class MiniLayout:
    dim: int


def mini_problem(objective, constraints, dim):
    return ConvexSubproblem(
        layout=MiniLayout(dim),
        objective=objective,
        constraints=tuple(constraints),
        reference=np.zeros(dim),
    )


def disc(center_x=0.0, radius=1.0):
    return RestrictionConstraint(
        family=Family.RADIUS,
        squares=(
            LinearForm((0,), (1.0,), -center_x),
            LinearForm((1,), (1.0,)),
        ),
        bound=LinearForm((), (), radius**2),
        vertices=(1,),
    )


@pytest.fixture(scope="module")
def hexagon_restriction():
    prog = build_program(6)
    z0 = polygon_to_vector(build_pendant_polygon(6))
    return prog, z0, build_restriction(prog, z0)


def dense_G(cone):
    return np.column_stack([cone.matvec(e) for e in np.eye(cone.dim)])


class TestLift:
    def test_hexagon_block_structure(self, hexagon_restriction):
        _, _, sub = hexagon_restriction
        cone = lift(sub)
        assert cone.n_nonneg == 9  # 5 half-plane + 4 nonneg-u sign rows
        assert cone.n_soc == 19  # 10 distance + 5 radius + 4 triangle-area
        assert cone.soc_families.count(Family.DISTANCE) == 10
        assert cone.soc_families.count(Family.RADIUS) == 5
        assert cone.soc_families.count(Family.TRIANGLE_AREA) == 4
        # every block is Q^4 over at most 5 columns
        assert cone.soc_coef.shape[0::2] == (4, 19)
        assert cone.soc_cols.shape[1] == 19
        assert cone.soc_coef.shape[1] == cone.soc_cols.shape[0] <= 5
        assert cone.dim == 14
        assert cone.n_rows == 9 + 19 * 4

    def test_radius_block_has_constant_unit_bound(self):
        sub = mini_problem(LinearForm((0,), (1.0,)), [disc()], 2)
        cone = lift(sub)
        # rows: (1+1)/2, x, y, (1-1)/2 with no x-dependence in the bound rows
        assert cone.h == pytest.approx([1.0, 0.0, 0.0, 0.0])
        dense = dense_G(cone)
        assert dense[0] == pytest.approx([0.0, 0.0])
        assert dense[3] == pytest.approx([0.0, 0.0])

    def test_rejects_malformed_constraint(self):
        bad = RestrictionConstraint(
            family=Family.RADIUS,
            squares=("not a linear form", LinearForm((1,), (1.0,))),
            bound=LinearForm((), (), 1.0),
            vertices=(1,),
        )
        sub = mini_problem(LinearForm((0,), (1.0,)), [bad], 2)
        with pytest.raises(NonConvexConstraint):
            lift(sub)

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_blocks_other_than_q4(self, count):
        squares = tuple(LinearForm((k % 2,), (1.0,)) for k in range(count))
        con = RestrictionConstraint(Family.RADIUS, squares, LinearForm((), (), 1.0), (1,))
        with pytest.raises(NonConvexConstraint):
            lift(mini_problem(LinearForm((0,), (1.0,)), [con], 2))


class TestConeOperators:
    """matvec, rmatvec and gram against dense products with G."""

    @pytest.fixture(params=["hexagon", "octagon"])
    def cone(self, request):
        n = 6 if request.param == "hexagon" else 8
        prog = build_program(n)
        return lift(build_restriction(prog, polygon_to_vector(build_pendant_polygon(n))))

    def test_rmatvec_is_transpose(self, cone):
        y = RNG.normal(size=cone.n_rows)
        assert cone.rmatvec(y) == pytest.approx(dense_G(cone).T @ y, abs=1e-12)

    def test_gram_matches_dense_product(self, cone):
        p, m = cone.n_nonneg, cone.n_soc
        d = RNG.uniform(0.5, 2.0, cone.n_rows)
        v = RNG.normal(size=(4, m))
        beta = RNG.uniform(0.5, 2.0, m)
        M = np.diag(d)
        for b in range(m):
            rows = p + b + m * np.arange(4)  # row j of block b
            M[np.ix_(rows, rows)] += beta[b] * np.outer(v[:, b], v[:, b])
        G = dense_G(cone)
        assert cone.gram(d, v, beta) == pytest.approx(G.T @ M @ G, abs=1e-12)
        assert cone.gram(np.ones(cone.n_rows)) == pytest.approx(G.T @ G, abs=1e-12)


class TestAnalyticOptima:
    def test_max_x_on_unit_disc(self):
        res = solve(lift(mini_problem(LinearForm((0,), (1.0,)), [disc()], 2)))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(1.0, abs=1e-8)
        assert res.primal == pytest.approx([1.0, 0.0], abs=1e-7)

    def test_max_diagonal_on_unit_disc(self):
        res = solve(lift(mini_problem(LinearForm((0, 1), (1.0, 1.0)), [disc()], 2)))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_max_x_on_ellipse(self):
        ellipse = RestrictionConstraint(
            family=Family.RADIUS,
            squares=(LinearForm((0,), (0.5,)), LinearForm((1,), (1.0,))),
            bound=LinearForm((), (), 1.0),
            vertices=(1,),
        )
        res = solve(lift(mini_problem(LinearForm((0,), (1.0,)), [ellipse], 2)))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-8)

    def test_max_y_on_two_disc_intersection(self):
        sub = mini_problem(
            LinearForm((1,), (1.0,)), [disc(center_x=0.5), disc(center_x=-0.5)], 2
        )
        res = solve(lift(sub))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
        assert res.primal == pytest.approx([0.0, math.sqrt(3.0) / 2.0], abs=1e-7)

    def test_pure_linear_program(self):
        cons = [
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((0,), (-1.0,), 1.0), (1,)),
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((1,), (-1.0,), 2.0), (1,)),
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((0,), (1.0,)), (1,)),
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((1,), (1.0,)), (1,)),
        ]
        res = solve(lift(mini_problem(LinearForm((0, 1), (1.0, 2.0)), cons, 2)))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_linear_objective_on_disc_matches_norm(self, cx, cy):
        res = solve(lift(mini_problem(LinearForm((0, 1), (cx, cy)), [disc()], 2)))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.hypot(cx, cy), abs=1e-7)


class TestSolverCertificates:
    def test_optimal_status_implies_tolerances(self, hexagon_restriction):
        _, _, sub = hexagon_restriction
        cfg = SolverConfig()
        res = solve(lift(sub), cfg)
        assert res.status is SolverStatus.OPTIMAL
        assert res.max_primal_residual <= cfg.tol_solver
        assert res.max_dual_residual <= cfg.tol_solver
        assert res.duality_gap <= cfg.tol_solver * max(1.0, abs(res.objective))

    def test_determinism(self, hexagon_restriction):
        _, _, sub = hexagon_restriction
        first = solve(lift(sub))
        second = solve(lift(sub))
        assert first.objective == second.objective
        assert np.array_equal(first.primal, second.primal)
        assert first.iterations == second.iterations

    def test_warm_start_reaches_same_optimum(self, hexagon_restriction):
        _, z0, sub = hexagon_restriction
        cold = solve(lift(sub))
        warm = solve(lift(sub), warm_start=z0)
        assert warm.status is SolverStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective, abs=1e-8)

    def test_iteration_limit_returns_best_iterate(self, hexagon_restriction):
        _, _, sub = hexagon_restriction
        res = solve(lift(sub), SolverConfig(max_iterations=3))
        assert res.status is SolverStatus.ITERATION_LIMIT
        assert np.isfinite(res.objective)
        assert res.max_primal_residual < 1.0

    def test_debug_log_line_per_iteration(self, hexagon_restriction, caplog):
        _, _, sub = hexagon_restriction
        with caplog.at_level(logging.DEBUG, logger="optigon.solver"):
            res = solve(lift(sub))
        lines = [r.getMessage() for r in caplog.records if r.name == "optigon.solver"]
        assert len(lines) == res.iterations + 1
        for line in lines:
            for key in ("pobj", "dobj", "gap", "pres", "dres", "step", "sigma"):
                assert f" {key}=" in line
        last_pobj = float(lines[-1].split("pobj=")[1].split()[0])
        assert last_pobj == pytest.approx(res.objective, rel=1e-11)

    def test_nonfinite_newton_step_is_numerical_failure(self):
        # warm-started at the pendant 12-gon, rounding leaves a block of lam
        # on the cone boundary, where the Newton right-hand side would be
        # non-finite; the scaling rejects it, and the cold retry fails as well
        z0 = polygon_to_vector(build_pendant_polygon(12))
        res = solve(ConeTemplate(12).at(z0), SolverConfig(tol_solver=1e-12), warm_start=z0)
        assert res.status is SolverStatus.NUMERICAL_FAILURE

    def test_warm_start_shape_is_checked(self, hexagon_restriction):
        _, z0, sub = hexagon_restriction
        with pytest.raises(ValueError, match="warm start must have shape"):
            solve(lift(sub), warm_start=z0[:-1])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tol_solver=0.0).validate()
        with pytest.raises(ValueError):
            SolverConfig(max_iterations=0).validate()


class TestInfeasible:
    """The solver has no infeasibility certificate: an infeasible problem
    ends in NUMERICAL_FAILURE, and the outer step raises on it."""

    @pytest.fixture(scope="class")
    def infeasible_lp(self):
        # x >= 2 and x <= 1
        cons = [
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((0,), (1.0,), -2.0), (1,)),
            RestrictionConstraint(Family.HALF_PLANE, (), LinearForm((0,), (-1.0,), 1.0), (1,)),
        ]
        return solve(lift(mini_problem(LinearForm((0,), (1.0,)), cons, 1)))

    def test_infeasible_lp_is_numerical_failure(self, infeasible_lp):
        assert infeasible_lp.status is SolverStatus.NUMERICAL_FAILURE

    def test_step_raises_on_it(self, monkeypatch, infeasible_lp):
        monkeypatch.setattr(ccp, "solve", lambda cone, cfg, warm_start=None: infeasible_lp)
        z0 = polygon_to_vector(build_pendant_polygon(6))
        with pytest.raises(SubproblemFailure) as info:
            ccp.step(ConeTemplate(6), z0, ccp.CcpConfig())
        assert info.value.result is infeasible_lp


class TestConeAlgebra:
    """Jordan algebra and NT scaling on R^p_+ x (Q^4)^m with several blocks."""

    P, M = 3, 5

    def interior_point(self, rng):
        nn = rng.uniform(0.2, 2.0, self.P)
        soc = rng.normal(size=(4, self.M))
        soc[0] = np.linalg.norm(soc[1:], axis=0) + rng.uniform(0.2, 1.0, self.M)
        return np.concatenate([nn, soc.ravel()])

    def test_jordan_inverse_product(self):
        rng = np.random.default_rng(3)
        lam = self.interior_point(rng)
        d = rng.normal(size=lam.size)
        assert _mul(lam, _inv_mul(lam, d, self.P), self.P) == pytest.approx(d, abs=1e-10)

    def test_nt_scaling_maps_s_and_z_to_same_point(self):
        rng = np.random.default_rng(4)
        s = self.interior_point(rng)
        z = self.interior_point(rng)
        W = _Scaling(s, z, self.P)
        assert W.apply(W.apply(z)) == pytest.approx(s, rel=1e-9)
        assert W.apply(z) == pytest.approx(W.lam, rel=1e-9)

    def test_scaling_round_trip(self):
        rng = np.random.default_rng(5)
        s = self.interior_point(rng)
        z = self.interior_point(rng)
        W = _Scaling(s, z, self.P)
        u = rng.normal(size=s.size)
        # W^{-2} undoes two applications of W, in either order
        assert W.apply_inv_sq(W.apply(W.apply(u))) == pytest.approx(u, abs=1e-10)
        assert W.apply(W.apply(W.apply_inv_sq(u))) == pytest.approx(u, abs=1e-10)


def test_import_leaves_scipy_sparse_unloaded():
    # a fresh interpreter that imports this same optigon package
    src = str(Path(optigon.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import optigon; " \
        "print(optigon.__file__, 'scipy.sparse' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == [optigon.__file__, "False"]


# ---------------------------------------------------------------------------
# independent oracle for the hexagon restriction at the pendant start:
# project onto the mirror-symmetric slice (x5=-x1, y5=y1, x4=-x2, y4=y2,
# x3=0, y3=1), eliminate the u variables at their per-constraint maxima,
# then grid-search (x1, y1, x2, y2) over shrinking boxes down to step 3e-7.
# Shrinking grids move all four coordinates jointly, which axis-by-axis
# descent cannot do along the curved active constraint boundary.

def _slice_objective(c, x1, y1, x2, y2):
    a = np.concatenate([[0.0], c[:5]])
    b = np.concatenate([[0.0], c[5:10]])
    xs = [np.zeros_like(x1), x1, x2, np.zeros_like(x1), -x2, -x1]
    ys = [np.zeros_like(y1), y1, y2, np.ones_like(y1), y2, y1]
    feasible = (y1 >= 0) & (y2 >= 0)
    for i in range(1, 6):
        feasible &= xs[i] ** 2 + ys[i] ** 2 <= 1.0 + 1e-12
        for j in range(i + 1, 6):
            feasible &= (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2 <= 1.0 + 1e-12
    total = np.zeros_like(x1)
    for i in range(1, 5):
        rhs = (
            2 * (b[i + 1] + a[i]) * (ys[i + 1] + xs[i])
            - (b[i + 1] + a[i]) ** 2
            + 2 * (a[i + 1] - b[i]) * (xs[i + 1] - ys[i])
            - (a[i + 1] - b[i]) ** 2
        )
        u_max = (rhs - (ys[i + 1] - xs[i]) ** 2 - (xs[i + 1] + ys[i]) ** 2) / 8.0
        feasible &= u_max >= 0.0
        total = total + u_max
    return np.where(feasible, total, -np.inf)


def _grid_search(c, center, half_width, step):
    axes = [np.arange(ci - half_width, ci + half_width + step / 2, step) for ci in center]
    best_val = -np.inf
    best_pt = tuple(center)
    for x1 in axes[0]:  # chunk the outermost axis to bound memory
        g1, g2, g3 = np.meshgrid(axes[1], axes[2], axes[3], indexing="ij")
        vals = _slice_objective(c, np.full_like(g1, x1), g1, g2, g3)
        idx = np.unravel_index(np.argmax(vals), vals.shape)
        if vals[idx] > best_val:
            best_val = float(vals[idx])
            best_pt = (x1, g1[idx], g2[idx], g3[idx])
    return np.array(best_pt), best_val


def test_hexagon_restriction_against_grid_oracle(hexagon_restriction):
    _, z0, sub = hexagon_restriction
    res = solve(lift(sub))
    assert res.status is SolverStatus.OPTIMAL

    center = (z0[0], z0[5], z0[1], z0[6])  # (x1, y1, x2, y2) at the reference
    point, oracle_val = _grid_search(c=z0, center=center, half_width=0.05, step=5e-3)
    half_width, step = 1e-2, 1e-3
    while step > 2e-7:
        point, oracle_val = _grid_search(z0, point, half_width, step)
        half_width, step = 2 * step, step / 5
    assert res.objective == pytest.approx(oracle_val, abs=1e-5)
