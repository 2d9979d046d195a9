"""The template's cone blocks, the cone operators and the interior-point solver.

Analytic optima pin the solver on tiny problems; the restriction of the
hexagon program at the pendant start is cross-checked against an
independent grid-plus-coordinate-descent oracle on the symmetric slice.
"""

import logging
import math
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import optigon
from optigon import ccp, conic_solver
from optigon.conic_solver import (
    REGULARIZATION,
    TOL_SOLVER,
    SolverStatus,
    _inv_mul,
    _max_step,
    _min_margin,
    _mul,
    _parts,
    _ReducedKkt,
    _Scaling,
    _tiled,
    cho_factor,
    cho_solve,
    solve,
)
from optigon.errors import SubproblemFailure
from optigon.formulation import ConeProblem, ConeTemplate, polygon_to_vector
from optigon.geometry import build_pendant_polygon

from reference_program import max_step, mini_cone

RNG = np.random.default_rng(7)

DISC = (1.0, 1.0, 0.0, 0.0)  # the unit disc as a mini_cone ellipse (s_0, s_1, c_0, c_1)


def pendant_restriction(n):
    """The pendant n-gon's vector z0 and the restriction at z0 on every
    distance pair."""
    template = ConeTemplate(n)
    z0 = polygon_to_vector(build_pendant_polygon(n))
    return z0, template.at(z0, np.ones(template.n_pairs, dtype=bool))


@pytest.fixture(scope="module")
def hexagon_restriction():
    return pendant_restriction(6)


def dense_G(cone):
    return np.column_stack([cone.matvec(e) for e in np.eye(cone.dim)])


def dense_gram(cone, d, v=None, beta=None):
    """G^T M G of `_ReducedKkt.assemble` in a dense dim x dim array,
    summed term by term in slot order from nn_cols and soc_*: the per-entry
    sums the pattern's bincount must reproduce bit for bit."""
    p = cone.n_nonneg
    A = cone.soc_coef
    soc = np.einsum("jkb,jlb->klb", A * d[p:].reshape(4, 1, -1), A)
    if v is not None:
        u = np.einsum("jkb,jb->kb", A, v)
        soc += (beta * u)[:, None, :] * u[None, :, :]
    H = np.zeros((cone.dim, cone.dim))
    # sign row r adds (-1) d_r (-1) = d_r on its column's diagonal
    np.add.at(H, (cone.nn_cols, cone.nn_cols), d[:p])
    cols = cone.soc_cols
    rows = np.broadcast_to(cols[:, None, :], soc.shape).ravel()
    columns = np.broadcast_to(cols[None, :, :], soc.shape).ravel()
    np.add.at(H, (rows, columns), soc.ravel())
    return H


def slot_order_products(cone, x, y):
    """G x and G^T y summed term by term in slot order from nn_cols and soc_*,
    with np.add.at over the rows and over `cone.cols`: the sums matvec and
    rmatvec must reproduce bit for bit."""
    p, m = cone.n_nonneg, cone.n_soc
    A = cone.soc_coef
    g_x = np.zeros(cone.n_rows)
    g_x[:p] = -x[cone.nn_cols]
    terms = A * x[cone.soc_cols]  # (j, k, b): row j of block b, slot k
    rows = p + m * np.arange(4)[:, None, None] + np.arange(m)
    np.add.at(g_x, np.broadcast_to(rows, terms.shape).ravel(), terms.ravel())
    # the weight of block slot (k, b) sums its four rows in order
    weights = np.add.reduce(A * y[p:].reshape(4, 1, m))
    g_t_y = np.zeros(cone.dim)
    np.add.at(g_t_y, cone.cols, np.concatenate([-y[:p], weights.ravel()]))
    return g_x, g_t_y


def pattern_factor(cone, d, v=None, beta=None):
    """The reduced KKT factor of the pattern path, as the IPM computes it."""
    kkt = _ReducedKkt(cone)
    return kkt.factor(kkt.assemble(d, v, beta))


def dense_factor(H):
    """_ReducedKkt.factor on a dense 3 x 3 H, through the pattern of one
    block over columns 0, 1, 2, 0, 0, whose slot pairs hold every entry."""
    cone = ConeProblem(c=np.zeros(3), h=np.zeros(4), nn_cols=np.zeros(0, dtype=np.intp),
                       soc_cols=np.array([[0], [1], [2], [0], [0]]),
                       soc_coef=np.zeros((4, 5, 1)))
    kkt = _ReducedKkt(cone)
    assert kkt.n_entries == H.size
    return kkt.factor(H.ravel())


def pattern_entries(cone):
    """The sorted flat indices i dim + j of every slot-pair term of G^T M G:
    where `_ReducedKkt.assemble` gives its values."""
    dim, cols = cone.dim, cone.soc_cols
    return np.unique(np.concatenate([cone.nn_cols * (dim + 1),
                                     (cols[:, None, :] * dim + cols[None, :, :]).ravel()]))


class TestLift:
    """The hexagon's restriction at the pendant start as Q^4 blocks."""

    def test_hexagon_block_structure(self, hexagon_restriction):
        _, cone = hexagon_restriction
        assert cone.n_nonneg == 9  # 5 half-plane + 4 nonneg-u sign rows
        assert cone.n_soc == 19  # 10 distance + 5 radius + 4 triangle-area
        # every block is Q^4 over at most 5 columns
        assert cone.soc_coef.shape == (4, 5, 19)
        assert cone.soc_cols.shape == (5, 19)
        assert cone.dim == 14
        assert cone.n_rows == 9 + 19 * 4

    def test_radius_block_has_constant_unit_bound(self, hexagon_restriction):
        _, cone = hexagon_restriction
        radius = np.arange(10, 15)
        # rows: (1+1)/2, x, y, (1-1)/2 with no x-dependence in the bound rows
        assert (cone.h[9:].reshape(4, 19)[:, radius] == [[1.0], [0.0], [0.0], [0.0]]).all()
        assert not cone.soc_coef[[0, 3]][:, :, radius].any()


class TestConeOperators:
    """matvec, rmatvec and the KKT assembly against dense products with G, and
    matvec and rmatvec against their slot-order sums bit for bit."""

    @pytest.fixture(params=["hexagon", "octagon"])
    def cone(self, request):
        return pendant_restriction(6 if request.param == "hexagon" else 8)[1]

    @pytest.mark.parametrize("n, screened", [(6, False), (8, False), (16, True)],
                             ids=["hexagon", "octagon", "screened16"])
    def test_products_sum_in_slot_order(self, n, screened):
        # bit for bit: a reordered sum changes the iterates, which the
        # tolerance of test_rmatvec_is_transpose lets through
        template = ConeTemplate(n)
        z0 = polygon_to_vector(build_pendant_polygon(n))
        keep = (ccp._near_unit(template.distance_sq(z0)) if screened
                else np.ones(template.n_pairs, dtype=bool))
        cone = template.at(z0, keep)
        assert not screened or 0 < keep.sum() < template.n_pairs
        rng = np.random.default_rng(n)
        x, y = rng.normal(size=cone.dim), rng.normal(size=cone.n_rows)
        g_x, g_t_y = slot_order_products(cone, x, y)
        assert np.array_equal(cone.matvec(x), g_x)
        assert np.array_equal(cone.rmatvec(y), g_t_y)

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
        entries = pattern_entries(cone)
        kkt = _ReducedKkt(cone)

        def gram(*args):
            H = np.zeros(cone.dim * cone.dim)
            H[entries] = kkt.assemble(*args)
            return H.reshape(cone.dim, cone.dim)

        assert gram(d, v, beta) == pytest.approx(G.T @ M @ G, abs=1e-12)
        assert gram(np.ones(cone.n_rows)) == pytest.approx(G.T @ G, abs=1e-12)
        # every entry of G^T G outside the pattern is zero
        outside = np.ones(cone.dim * cone.dim, dtype=bool)
        outside[entries] = False
        assert not (G.T @ G).ravel()[outside].any()


class TestAnalyticOptima:
    def test_max_x_on_unit_disc(self):
        res = solve(mini_cone([1.0, 0.0], ellipses=[DISC]), np.zeros(2))
        assert (res.status, res.cause) == (SolverStatus.OPTIMAL, "")
        assert res.objective == pytest.approx(1.0, abs=1e-8)
        assert res.primal == pytest.approx([1.0, 0.0], abs=1e-7)

    def test_max_diagonal_on_unit_disc(self):
        res = solve(mini_cone([1.0, 1.0], ellipses=[DISC]), np.zeros(2))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_max_x_on_ellipse(self):
        res = solve(mini_cone([1.0, 0.0], ellipses=[(0.5, 1.0, 0.0, 0.0)]), np.zeros(2))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-8)

    def test_max_y_on_two_disc_intersection(self):
        discs = [(1.0, 1.0, 0.5, 0.0), (1.0, 1.0, -0.5, 0.0)]
        res = solve(mini_cone([0.0, 1.0], ellipses=discs), np.zeros(2))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-8)
        assert res.primal == pytest.approx([0.0, math.sqrt(3.0) / 2.0], abs=1e-7)

    def test_pure_linear_program(self):
        # 0 <= x <= 1, 0 <= y <= 2
        box = [([-1.0, 0.0], 1.0), ([0.0, -1.0], 2.0), ([1.0, 0.0], 0.0), ([0.0, 1.0], 0.0)]
        res = solve(mini_cone([1.0, 2.0], halfplanes=box), np.zeros(2))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_linear_objective_on_disc_matches_norm(self, cx, cy):
        res = solve(mini_cone([cx, cy], ellipses=[DISC]), np.zeros(2))
        assert res.status is SolverStatus.OPTIMAL
        assert res.objective == pytest.approx(math.hypot(cx, cy), abs=1e-7)


class TestSolverCertificates:
    def test_optimal_status_implies_tolerances(self, hexagon_restriction):
        z0, cone = hexagon_restriction
        res = solve(cone, z0)
        assert res.status is SolverStatus.OPTIMAL
        assert res.max_primal_residual <= TOL_SOLVER
        assert res.max_dual_residual <= TOL_SOLVER
        assert res.duality_gap <= TOL_SOLVER * max(1.0, abs(res.objective))

    def test_determinism(self, hexagon_restriction):
        z0, cone = hexagon_restriction
        first = solve(cone, z0)
        second = solve(cone, z0)
        assert first.objective == second.objective
        assert np.array_equal(first.primal, second.primal)
        assert first.iterations == second.iterations

    def test_iteration_limit_returns_last_iterate(self, hexagon_restriction, monkeypatch, caplog):
        z0, cone = hexagon_restriction
        monkeypatch.setattr(conic_solver, "MAX_ITERATIONS", 3)
        with caplog.at_level(logging.DEBUG, logger="optigon.solver"):
            res = solve(cone, z0)
        assert res.status is SolverStatus.ITERATION_LIMIT
        assert res.iterations == 3
        # the objective of the iterate the last debug line describes
        last = caplog.records[-1].getMessage()
        assert last.startswith("ipm   3:") and f" pobj={res.objective:+.12e} " in last
        assert res.max_primal_residual < 1.0

    @pytest.mark.parametrize("cap", [None, 3])
    def test_certificate_describes_returned_primal(self, cap, monkeypatch):
        # the objective and the primal residual describe res.primal bit for
        # bit, whether the solve stopped on its tolerances or on the cap
        z0, cone = pendant_restriction(16)
        if cap is not None:
            monkeypatch.setattr(conic_solver, "MAX_ITERATIONS", cap)
        res = solve(cone, z0)
        expected = SolverStatus.OPTIMAL if cap is None else SolverStatus.ITERATION_LIMIT
        assert res.status is expected
        assert res.objective == float(-(cone.c @ res.primal))
        margin = _min_margin(cone.h - cone.matvec(res.primal), cone.n_nonneg)
        assert res.max_primal_residual == max(0.0, -margin)

    def test_debug_log_line_per_iteration(self, hexagon_restriction, caplog):
        z0, cone = hexagon_restriction
        with caplog.at_level(logging.DEBUG, logger="optigon.solver"):
            res = solve(cone, z0)
        lines = [r.getMessage() for r in caplog.records if r.name == "optigon.solver"]
        assert len(lines) == res.iterations + 1
        for line in lines:
            for key in ("pobj", "dobj", "gap", "pres", "dres", "step", "sigma"):
                assert f" {key}=" in line
        last_pobj = float(lines[-1].split("pobj=")[1].split()[0])
        assert last_pobj == pytest.approx(res.objective, rel=1e-11)

    def test_nonfinite_newton_step_is_numerical_failure(self):
        # started at the pendant 12-gon, rounding leaves a block of lam on
        # the cone boundary, where the Newton right-hand side would be
        # non-finite; the scaling rejects it
        z0, cone = pendant_restriction(12)
        res = solve(cone, z0, tol_solver=1e-12)
        assert res.status is SolverStatus.NUMERICAL_FAILURE

    def test_start_shape_is_checked(self, hexagon_restriction):
        z0, cone = hexagon_restriction
        with pytest.raises(ValueError, match="start must have shape"):
            solve(cone, z0[:-1])

    def test_config_validation(self, hexagon_restriction):
        z0, cone = hexagon_restriction
        # an infinite tolerance would accept the start after 0 iterations
        # True used to pass as 1.0; a string or None raised TypeError
        for tol in (True, "1e-9", None, math.nan, math.inf, 0.0):
            with pytest.raises(ValueError, match="tol_solver must be finite and positive"):
                solve(cone, z0, tol_solver=tol)


def gram_times(factor):
    """_ReducedKkt.assemble with the reduced KKT matrix of every IPM
    iteration multiplied by factor."""
    assemble = _ReducedKkt.assemble

    def scaled(self, d, v=None, beta=None):
        H = assemble(self, d, v, beta)
        return H * factor if v is not None else H

    return scaled


class TestFailureExits:
    """Every cause of NUMERICAL_FAILURE ends the solve through the one exit,
    which logs the cause and returns it with the iterate the loop stopped at."""

    CAUSES = {
        "kkt_not_finite": ("reduced KKT matrix is not finite",
                           lambda mp: mp.setattr(_ReducedKkt, "assemble", gram_times(np.nan))),
        "kkt_indefinite": ("reduced KKT matrix is not positive definite",
                           lambda mp: mp.setattr(_ReducedKkt, "assemble", gram_times(-1.0))),
        # NaN entries in every Newton right-hand side
        "rhs_not_finite": ("right-hand side is not finite",
                           lambda mp: mp.setattr(conic_solver, "_inv_mul",
                                                 lambda lam, d: np.full_like(d, np.nan))),
        "no_interior_step": ("no interior step",
                             lambda mp: mp.setattr(conic_solver, "STEP_FRACTION", 0.0)),
    }

    @pytest.mark.parametrize("cause", CAUSES)
    def test_cause_is_numerical_failure(self, cause, monkeypatch, caplog):
        message, patch = self.CAUSES[cause]
        z0, cone = pendant_restriction(6)
        patch(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="optigon.solver"):
            res = solve(cone, z0)
        assert res.status is SolverStatus.NUMERICAL_FAILURE
        assert res.cause == message
        *_, state, stop = (r.getMessage() for r in caplog.records)
        assert stop == f"ipm {res.iterations:3d}: {message}"
        assert state.startswith(f"ipm {res.iterations:3d}: pobj={res.objective:+.12e} ")
        assert res.objective == float(-(cone.c @ res.primal))


class TestInfeasible:
    """The solver has no infeasibility certificate: an infeasible problem
    ends in NUMERICAL_FAILURE, and the outer step raises on it."""

    @pytest.fixture(scope="class")
    def infeasible_lp(self):
        # x >= 2 and x <= 1
        return solve(mini_cone([1.0], halfplanes=[([1.0], -2.0), ([-1.0], 1.0)]), np.zeros(1))

    def test_infeasible_lp_is_numerical_failure(self, infeasible_lp):
        assert infeasible_lp.status is SolverStatus.NUMERICAL_FAILURE

    def test_step_raises_on_it(self, monkeypatch, infeasible_lp):
        monkeypatch.setattr(ccp, "solve", lambda cone, start, tol_solver: infeasible_lp)
        z0 = polygon_to_vector(build_pendant_polygon(6))
        with pytest.raises(SubproblemFailure) as info:
            ccp.step(ConeTemplate(6), z0)
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
        assert _mul(lam, _inv_mul(_parts(lam, self.P), d), self.P) == pytest.approx(d, abs=1e-10)

    def test_nt_scaling_maps_s_and_z_to_same_point(self):
        rng = np.random.default_rng(4)
        s = self.interior_point(rng)
        z = self.interior_point(rng)
        W = _Scaling(s, z, self.P)
        assert W.apply(W.apply(z)) == pytest.approx(s, rel=1e-9)
        assert W.apply(z) == pytest.approx(W.lam, rel=1e-9)

    @pytest.mark.parametrize("outside", ["s", "z"])
    def test_scaling_rejects_iterate_outside_cone(self, outside):
        rng = np.random.default_rng(6)
        u = {"s": self.interior_point(rng), "z": self.interior_point(rng)}
        soc = u[outside][self.P:].reshape(4, self.M)
        soc[0, -1] = 0.5 * np.linalg.norm(soc[1:, -1])  # u_0 < |u_1| on the last block
        with pytest.raises(FloatingPointError, match="left the interior"):
            _Scaling(u["s"], u["z"], self.P)

    @pytest.mark.parametrize("outside", ["s", "z"])
    @pytest.mark.parametrize("where", ["orthant", "block"])
    def test_scaling_rejects_nan(self, outside, where):
        rng = np.random.default_rng(8)
        u = {"s": self.interior_point(rng), "z": self.interior_point(rng)}
        u[outside][1 if where == "orthant" else self.P + 2] = np.nan
        with pytest.raises(FloatingPointError, match="left the interior"):
            _Scaling(u["s"], u["z"], self.P)

    @pytest.mark.parametrize("outside, where",
                             [("s", "orthant"), ("s", "block"), ("z", "orthant"), ("z", "block")])
    def test_scaling_rejects_boundary_point(self, outside, where):
        rng = np.random.default_rng(9)
        u = {"s": self.interior_point(rng), "z": self.interior_point(rng)}
        if where == "orthant":
            u[outside][0] = 0.0
        else:  # (1, 1, 0, 0), whose determinant is 0 in floating point too
            u[outside][self.P:].reshape(4, self.M)[:, 0] = (1.0, 1.0, 0.0, 0.0)
        with pytest.raises(FloatingPointError, match="left the interior"):
            _Scaling(u["s"], u["z"], self.P)

    # checked before s / z and its square root, which would warn instead
    @pytest.mark.parametrize("outside", ["s", "z"])
    def test_scaling_rejects_negative_orthant_entry(self, outside):
        rng = np.random.default_rng(10)
        u = {"s": self.interior_point(rng), "z": self.interior_point(rng)}
        u[outside][2] = -0.5
        with pytest.raises(FloatingPointError, match="left the interior"):
            _Scaling(u["s"], u["z"], self.P)

    def test_scaling_rejects_block_of_negative_cone(self):
        # s's block (-2, 0.5, 0.1, 0.2) lies in -Q^4: its jdet is positive,
        # and gamma's square root would warn instead
        s = np.array([1.0, -2.0, 0.5, 0.1, 0.2])
        z = np.array([1.0, 1.5, 0.2, 0.1, 0.3])
        with pytest.raises(FloatingPointError, match="left the interior"):
            _Scaling(s, z, 1)

    def test_scaling_round_trip(self):
        rng = np.random.default_rng(5)
        s = self.interior_point(rng)
        z = self.interior_point(rng)
        W = _Scaling(s, z, self.P)
        u = rng.normal(size=s.size)
        # W^{-2} undoes two applications of W, in either order
        assert W.apply_inv_sq(W.apply(W.apply(u))) == pytest.approx(u, abs=1e-10)
        assert W.apply(W.apply(W.apply_inv_sq(u))) == pytest.approx(u, abs=1e-10)


# how a direction moves one block of an interior u; c0 + c1 t + c2 t^2 is
# jdet(u + t d) on the block
BLOCK_KINDS = (
    "generic",  # c2 != 0: the quadratic case
    "leaving_ray",  # d = (-|a|, a e_j): c2 = 0 exactly and c1 < 0, the linear case
    "entering_ray",  # d = (|a|, a e_j): c2 = 0 and c1 > 0, no root
    "toward_apex",  # d = -k u: a double root, whose discriminant rounds either way
    "zero",  # no root
)


def step_case(p, kinds, nn_kinds, seed):
    """A strictly interior u of p orthant entries and len(kinds[0]) blocks,
    and one direction for each entry of kinds and nn_kinds: the kind of
    each of its blocks, and "generic" or "zero" for its orthant part."""
    rng = np.random.default_rng(seed)
    m = len(kinds[0])
    soc = rng.normal(size=(4, m))
    soc[0] = np.linalg.norm(soc[1:], axis=0) + rng.uniform(0.01, 1.0, m)
    u = np.concatenate([rng.uniform(0.01, 2.0, p), soc.ravel()])
    dus = []
    for block_kinds, nn_kind in zip(kinds, nn_kinds):
        d_nn = rng.normal(size=p) * rng.uniform(0.1, 10.0) * (nn_kind == "generic")
        d_soc = np.zeros((4, m))
        for b, kind in enumerate(block_kinds):
            a = rng.uniform(0.1, 10.0) * rng.choice((-1.0, 1.0))
            if kind == "generic":
                d_soc[:, b] = a * rng.normal(size=4)
            elif kind in ("leaving_ray", "entering_ray"):
                d_soc[0, b] = -abs(a) if kind == "leaving_ray" else abs(a)
                d_soc[rng.integers(1, 4), b] = a
            elif kind == "toward_apex":
                d_soc[:, b] = -abs(a) * soc[:, b]
        dus.append(np.concatenate([d_nn, d_soc.ravel()]))
    return u, dus


def block_coefficients(u, d, p):
    """c0, c1, c2 and the discriminant of every block, as _max_step forms them."""
    u_soc, d_soc = u[p:].reshape(4, -1), d[p:].reshape(4, -1)
    c0 = 2.0 * u_soc[0] ** 2 - np.add.reduce(u_soc * u_soc)
    c1 = 2.0 * (2.0 * u_soc[0] * d_soc[0] - np.add.reduce(u_soc * d_soc))
    c2 = 2.0 * d_soc[0] ** 2 - np.add.reduce(d_soc * d_soc)
    return c0, c1, c2, c1 * c1 - 4.0 * c2 * c0


@st.composite
def step_cases(draw):
    """(p, kinds, nn_kinds, seed) for step_case: one or two directions."""
    p = draw(st.integers(0, 3))
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 2))
    kinds = draw(st.lists(st.lists(st.sampled_from(BLOCK_KINDS), min_size=m, max_size=m),
                          min_size=k, max_size=k))
    nn_kinds = draw(st.lists(st.sampled_from(("generic", "zero")), min_size=k, max_size=k))
    return p, kinds, nn_kinds, draw(st.integers(0, 2**32 - 1))


class TestStepLength:
    @settings(max_examples=300, deadline=None)
    @given(step_cases())
    # the linear case, an empty orthant, and a zero direction (step inf)
    @example((2, [["leaving_ray", "generic"]], ["generic"], 1))
    @example((0, [["generic", "entering_ray"], ["toward_apex", "zero"]], ["zero", "zero"], 2))
    @example((0, [["zero", "zero"]], ["zero"], 3))
    def test_matches_the_case_by_case_formula(self, case):
        # the solver's path: u's parts tiled once, then every direction
        u, dus = step_case(*case)
        u_parts = _tiled(_parts(u, case[0]), len(dus))
        assert _max_step(u_parts, tuple(dus)) == max_step(u_parts, tuple(dus))

    @pytest.mark.parametrize("seed", range(8))
    def test_kinds_reach_their_cases(self, seed):
        p = 2
        kinds = ["generic", "leaving_ray", "entering_ray", "toward_apex", "zero"]
        u, (d,) = step_case(p, [kinds], ["generic"], seed)
        c0, c1, c2, disc = block_coefficients(u, d, p)
        quad = np.abs(c2) > 1e-14 * (c0 + np.abs(c1) + 1.0)
        assert quad.tolist() == [True, False, False, True, False]
        assert c1[1] < 0 < c1[2] and c1[4] == 0

    def test_toward_apex_can_round_the_discriminant_negative(self):
        # a double root whose discriminant rounds below 0 has no real root
        # in either form; seeds 0..19 give at least one
        negative = 0
        for seed in range(20):
            u, (d,) = step_case(0, [["toward_apex"]], ["zero"], seed)
            negative += block_coefficients(u, d, 0)[3][0] < 0
            assert _max_step(_parts(u, 0), (d,)) == max_step(_parts(u, 0), (d,))
        assert negative > 0

    def test_zero_direction_never_leaves(self):
        u, dus = step_case(3, [["zero"] * 4, ["zero"] * 4], ["zero", "zero"], 0)
        assert _max_step(_tiled(_parts(u, 3), 2), tuple(dus)) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_two_directions_in_one_pass(self, p, m, seed):
        # the stacked pass returns exactly the smaller one-direction step
        rng = np.random.default_rng(seed)
        soc = rng.normal(size=(4, m))
        soc[0] = np.linalg.norm(soc[1:], axis=0) + rng.uniform(0.01, 1.0, m)
        u = np.concatenate([rng.uniform(0.01, 2.0, p), soc.ravel()])
        d1, d2 = rng.normal(size=(2, u.size)) * rng.uniform(0.1, 10.0)
        u_parts = _parts(u, p)
        one = min(_max_step(u_parts, (d1,)), _max_step(u_parts, (d2,)))
        # the solver's path: u's parts tiled once, then both directions
        assert _max_step(_tiled(u_parts, 2), (d1, d2)) == one


class TestCholesky:
    """The LAPACK kernels give the bits of scipy's cho_factor/cho_solve on
    the symmetrized, regularized matrix."""

    @staticmethod
    def first_iteration_terms(cone, start):
        """(d, v, beta) of G^T W^{-2} G in the first IPM iteration on cone
        from start."""
        assemble = _ReducedKkt.assemble
        built = []

        def recording_gram(self, d, v=None, beta=None):
            if v is not None:
                built.append((d.copy(), v.copy(), beta.copy()))
            return assemble(self, d, v, beta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_ReducedKkt, "assemble", recording_gram)
            mp.setattr(conic_solver, "MAX_ITERATIONS", 1)
            solve(cone, start)
        return built[0]

    @pytest.fixture(scope="class")
    def reduced_kkt(self):
        # G^T W^{-2} G as built in the first IPM iteration at the pendant 16-gon
        z0, cone = pendant_restriction(16)
        return cone, self.first_iteration_terms(cone, z0)

    @staticmethod
    def reference(H):
        return scipy.linalg.cho_factor(0.5 * (H + H.T) + REGULARIZATION * np.eye(len(H)),
                                       lower=True)

    def test_factor_and_solve_match_scipy(self, reduced_kkt):
        cone, terms = reduced_kkt
        ref = self.reference(dense_gram(cone, *terms))
        c = pattern_factor(cone, *terms)
        assert np.array_equal(np.tril(c), np.tril(ref[0]))
        b = np.random.default_rng(0).normal(size=len(c))
        assert np.array_equal(cho_solve(c, b), scipy.linalg.cho_solve(ref, b))

    def test_screened_factor_matches_scipy(self):
        # the first IPM iteration on the screened restriction at the pendant
        # 32-gon, the cone the outer loop solves
        template = ConeTemplate(32)
        z0 = polygon_to_vector(build_pendant_polygon(32))
        keep = ccp._near_unit(template.distance_sq(z0))
        cone = template.at(z0, keep)
        assert 0 < keep.sum() < template.n_pairs
        terms = self.first_iteration_terms(cone, z0)
        ref = self.reference(dense_gram(cone, *terms))
        assert np.array_equal(np.tril(pattern_factor(cone, *terms)), np.tril(ref[0]))

    def test_factor_does_not_depend_on_earlier_restrictions(self):
        # masks A, B (A plus one pair), A, A from one template: each factor
        # is that of a cone built afresh from the same arrays, so `at`
        # carries nothing from one call to the next
        template = ConeTemplate(16)
        z0 = polygon_to_vector(build_pendant_polygon(16))
        a = ccp._near_unit(template.distance_sq(z0))
        b = a.copy()
        b[np.flatnonzero(~a)[0]] = True
        cones = [template.at(z0, mask) for mask in (a, b, a, a)]
        assert cones[1].n_soc == cones[0].n_soc + 1
        for cone in cones:
            fresh = ConeProblem(cone.c, cone.h, cone.nn_cols, cone.soc_cols.copy(),
                                cone.soc_coef)
            terms = self.first_iteration_terms(cone, z0)
            assert np.array_equal(np.tril(pattern_factor(cone, *terms)),
                                  np.tril(pattern_factor(fresh, *terms)))

    def test_pattern_is_built_before_the_kkt_buffer(self):
        # the pattern's dense dim x dim scratch is freed before the dim x dim
        # KKT buffer exists, so the two never add up in the peak: building
        # the KKT of the screened restriction at the pendant 128-gon peaks
        # less than one buffer's worth above what the built object keeps
        template = ConeTemplate(128)
        z0 = polygon_to_vector(build_pendant_polygon(128))
        cone = template.at(z0, ccp._near_unit(template.distance_sq(z0)))
        tracemalloc.start()
        try:
            kkt = _ReducedKkt(cone)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kkt.buffer.nbytes == cone.dim**2 * 8
        assert peak - kept < kkt.buffer.nbytes

    def test_solve_leaves_no_kkt_state_on_its_cone(self):
        # the KKT pattern and buffer belong to one solve, and a G product's
        # scratch to one call: afterwards the cone holds its arrays, as they
        # were, the shape caches and the slot columns only
        template = ConeTemplate(16)
        z0 = polygon_to_vector(build_pendant_polygon(16))
        cone = template.at(z0, ccp._near_unit(template.distance_sq(z0)))
        before = {name: array.tobytes() for name, array in vars(cone).items()}
        assert solve(cone, z0).status is SolverStatus.OPTIMAL
        assert set(vars(cone)) == set(before) | {"dim", "n_nonneg", "n_soc", "n_rows", "cols"}
        assert {name: vars(cone)[name].tobytes() for name in before} == before

    def test_threads_solving_one_cone_get_the_serial_primal(self):
        # a solve writes nothing on its cone but idempotent caches, so
        # threads may share one; with a scratch buffer kept on the cone,
        # about half of these primals differed from the serial one
        template = ConeTemplate(16)
        z0 = polygon_to_vector(build_pendant_polygon(16))
        cone = template.at(z0, ccp._near_unit(template.distance_sq(z0)))
        serial = solve(cone, z0).primal.tobytes()
        primals = []

        def solves():
            for _ in range(10):
                primals.append(solve(cone, z0).primal.tobytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=solves) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert [primal == serial for primal in primals] == [True] * 20

    def test_one_shift_and_one_factorization(self, monkeypatch):
        # REGULARIZATION leaves the smallest eigenvalue negative, and no
        # larger shift is tried: the factorization fails after one call
        calls = []

        def counting_cho_factor(a):
            calls.append(a.copy(order="A"))
            return cho_factor(a)

        monkeypatch.setattr(conic_solver, "cho_factor", counting_cho_factor)
        with pytest.raises(FloatingPointError,
                           match="^reduced KKT matrix is not positive definite$"):
            dense_factor(np.diag([2.0, 1.0, -5e-11]))
        assert len(calls) == 1
        assert np.array_equal(np.diag(calls[0]), np.array([2.0, 1.0, -5e-11]) + REGULARIZATION)

    def test_indefinite_and_nonfinite_give_no_factor(self):
        with pytest.raises(FloatingPointError, match="not positive definite"):
            dense_factor(-np.eye(3))
        with pytest.raises(FloatingPointError, match="not finite"):
            dense_factor(np.full((3, 3), np.nan))
        with pytest.raises(scipy.linalg.LinAlgError):
            cho_factor(np.asfortranarray(-np.eye(3)))

    def test_nonfinite_right_hand_side_raises(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(FloatingPointError, match="right-hand side is not finite"):
                cho_solve(cho_factor(np.asfortranarray(np.eye(3))), np.array([1.0, bad, 0.0]))

    @pytest.mark.parametrize("operand", ["c_ordered", "read_only", "float32"])
    def test_other_operands_are_refused_and_left_alone(self, operand):
        # LAPACK would read a C-ordered matrix as its transpose, and ctypes
        # would write into a read-only one or read float32 as float64; the
        # solver passes only writable Fortran-ordered float64 matrices
        a = np.asfortranarray(np.array([[4.0, 2.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 2.0]]))
        if operand == "c_ordered":
            a = np.ascontiguousarray(a)
        elif operand == "read_only":
            a.setflags(write=False)
        else:
            a = a.astype(np.float32)
        before = a.copy(order="A")
        with pytest.raises(ValueError, match="writable Fortran-ordered float64"):
            cho_factor(a)
        with pytest.raises(ValueError, match="writable Fortran-ordered float64"):
            cho_solve(a, np.ones(3))
        assert a.tobytes(order="A") == before.tobytes(order="A")

    def test_solve_returns_a_new_vector(self):
        b = np.array([4.0, 8.0, 2.0])
        x = cho_solve(cho_factor(np.asfortranarray(4.0 * np.eye(3))), b)
        assert x is not b and np.array_equal(b, [4.0, 8.0, 2.0])
        assert np.array_equal(x, [1.0, 2.0, 0.5])

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (1, 2, 2)])
    def test_non_square_matrix_raises(self, shape):
        with pytest.raises(ValueError, match="square matrix"):
            cho_factor(np.ones(shape))
        with pytest.raises(ValueError, match="square matrix"):
            cho_solve(np.ones(shape), np.ones(3))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_right_hand_side_of_another_shape_raises(self, shape):
        with pytest.raises(ValueError, match="right-hand side of shape"):
            cho_solve(cho_factor(np.asfortranarray(np.eye(3))), np.ones(shape))

    def test_flapack_file_fallback_matches_the_bundled_library(self, reduced_kkt, tmp_path,
                                                               monkeypatch):
        # a bundled library without LAPACK's routines, then `_flapack`'s
        # file, opened by ctypes, whose dependencies supply them
        import _ctypes

        (tmp_path / "libopenblas_stub.so").symlink_to(_ctypes.__file__)
        cone, terms = reduced_kkt
        b = np.random.default_rng(0).normal(size=cone.dim)
        bundled = pattern_factor(cone, *terms)
        expected = cho_solve(bundled, b)
        routines = conic_solver._load_lapack(tmp_path, conic_solver._SCIPY / "linalg")
        assert routines[0] is not conic_solver.dpotrf
        monkeypatch.setattr(conic_solver, "dpotrf", routines[0])
        monkeypatch.setattr(conic_solver, "dpotrs", routines[1])
        fallback = pattern_factor(cone, *terms)
        assert np.array_equal(fallback, bundled)
        assert np.array_equal(cho_solve(fallback, b), expected)


def test_import_leaves_scipy_sparse_unloaded():
    # a fresh interpreter that imports this same optigon package, then its
    # CLI, and factors a 3 x 3 matrix: LAPACK comes from scipy's bundled
    # OpenBLAS through ctypes, so neither scipy.linalg nor the `_flapack`
    # extension is imported, nor, on Linux, is `_flapack`'s file mapped; no
    # import goes through a deprecated numpy module such as numpy.core
    src = str(Path(optigon.__file__).resolve().parents[1])
    loaded = "print(*(m in sys.modules for m in " \
        "('scipy.linalg', 'scipy.sparse', 'scipy.linalg._flapack')))"
    mapped = "print(sys.platform == 'linux' and '_flapack' in open('/proc/self/maps').read())"
    code = f"import sys; sys.path.insert(0, {src!r}); import optigon; " \
        f"print(optigon.__file__); {loaded}; import optigon.cli; {loaded}; " \
        "import numpy as np; from optigon.conic_solver import cho_factor; " \
        f"cho_factor(np.asfortranarray(np.eye(3))); {loaded}; {mapped}"
    out = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c", code],
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [optigon.__file__] + ["False False False"] * 3 + ["False"]


def test_lapack_extension_not_found_is_import_error(tmp_path):
    # an empty libs directory, or none, and a linalg directory without
    # `_flapack`: the message names both places
    (tmp_path / "scipy.libs").mkdir()
    (tmp_path / "linalg").mkdir()
    for libs in (tmp_path / "scipy.libs", tmp_path / "missing"):
        with pytest.raises(ImportError) as raised:
            conic_solver._load_lapack(libs, tmp_path / "linalg")
        assert str(libs) in str(raised.value)
        assert str(tmp_path / "linalg") in str(raised.value)


def test_no_thread_setter_logs_one_warning(monkeypatch, caplog):
    # the bundled OpenBLAS as if it had no setter, as with another BLAS
    symbol = conic_solver._symbol
    monkeypatch.setattr(conic_solver, "_symbol",
                        lambda lib, name: None if "threads" in name else symbol(lib, name))
    with caplog.at_level(logging.WARNING, logger="optigon.solver"):
        routines = conic_solver._load_lapack(conic_solver._SCIPY.parent / "scipy.libs",
                                             conic_solver._SCIPY / "linalg")
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "no OpenBLAS thread setter in" in caplog.records[0].getMessage()
    assert None not in routines


def test_missing_lapack_extension_is_import_error(tmp_path):
    # a scipy package with neither scipy.libs nor linalg/_flapack ahead of
    # the real one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("")
    src = str(Path(optigon.__file__).resolve().parents[1])
    code = f"import sys; sys.path[:0] = [{str(tmp_path)!r}, {src!r}]; import optigon"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError:")
    assert str(tmp_path / "scipy.libs") in last and str(tmp_path / "scipy" / "linalg") in last


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
    z0, cone = hexagon_restriction
    res = solve(cone, z0)
    assert res.status is SolverStatus.OPTIMAL

    center = (z0[0], z0[5], z0[1], z0[6])  # (x1, y1, x2, y2) at the reference
    point, oracle_val = _grid_search(c=z0, center=center, half_width=0.05, step=5e-3)
    half_width, step = 1e-2, 1e-3
    while step > 2e-7:
        point, oracle_val = _grid_search(z0, point, half_width, step)
        half_width, step = 2 * step, step / 5
    assert res.objective == pytest.approx(oracle_val, abs=1e-5)
