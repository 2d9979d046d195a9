"""DC program assembly, restriction building, and evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optigon.errors import DimensionMismatch
from optigon.formulation import (
    ConeTemplate,
    Family,
    build_program,
    build_restriction,
    describe_program,
    describe_subproblem,
    evaluate,
    lift,
    polygon_to_vector,
    vector_to_polygon,
)
from optigon.geometry import Polygon, build_pendant_polygon, build_regular_polygon

RNG = np.random.default_rng(20240817)


@pytest.fixture(scope="module")
def prog6():
    return build_program(6)


@pytest.fixture(scope="module")
def pendant6_vector():
    return polygon_to_vector(build_pendant_polygon(6))


class TestBuildProgram:
    def test_dimension_and_family_counts(self, prog6):
        assert prog6.dim == 14
        counts = prog6.family_counts()
        assert counts[Family.DISTANCE] == 10
        assert counts[Family.RADIUS] == 5
        assert counts[Family.HALF_PLANE] == 5
        assert counts[Family.TRIANGLE_AREA] == 4
        assert counts[Family.NONNEG_U] == 4

    def test_counts_formula_general(self):
        for n in (4, 5, 8, 13):
            counts = build_program(n).family_counts()
            assert counts[Family.DISTANCE] == (n - 1) * (n - 2) // 2
            assert counts[Family.RADIUS] == n - 1
            assert counts[Family.HALF_PLANE] == n - 1
            assert counts[Family.TRIANGLE_AREA] == n - 2
            assert counts[Family.NONNEG_U] == n - 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            build_program(3)

    def test_dc_identity_at_random_points(self, prog6):
        # g - h must equal 4*(y_{i+1} x_i - x_{i+1} y_i - 2 u_i) identically
        layout = prog6.layout
        triangle = [c for c in prog6.constraints if c.family is Family.TRIANGLE_AREA]
        for _ in range(1000):
            z = RNG.uniform(-2.0, 2.0, prog6.dim)
            for con in triangle:
                i, ip1 = con.vertices
                direct = 4.0 * (
                    z[layout.y(ip1)] * z[layout.x(i)]
                    - z[layout.x(ip1)] * z[layout.y(i)]
                    - 2.0 * z[layout.u(i)]
                )
                assert abs(con.residual(z) - direct) < 1e-10

    def test_pendant_start_is_feasible(self, prog6, pendant6_vector):
        report = evaluate(prog6, pendant6_vector)
        assert report.min_residual() >= -1e-12


class TestEvaluate:
    def test_printed_final_point(self, prog6):
        printed = Polygon(
            np.array(
                [
                    (0.0, 0.0),
                    (0.500000, 0.402352),
                    (0.343773, 0.939053),
                    (0.0, 1.0),
                    (-0.343773, 0.939053),
                    (-0.500000, 0.402352),
                ]
            )
        )
        report = evaluate(prog6, polygon_to_vector(printed))
        # printed 6-decimal coordinates: agreement limited to ~3e-7
        assert report.objective == pytest.approx(0.6749814387, abs=1e-6)
        assert report.min_residual() >= -1e-6

    def test_origin_point_is_feasible(self, prog6):
        report = evaluate(prog6, np.zeros(prog6.dim))
        assert report.objective == 0.0
        assert report.min_residual() >= 0.0

    def test_inflating_u_drops_residual_by_eight(self, prog6, pendant6_vector):
        layout = prog6.layout
        base = evaluate(prog6, pendant6_vector).by_family(Family.TRIANGLE_AREA)
        bumped = pendant6_vector.copy()
        bumped[layout.u(1)] += 1.0
        after = evaluate(prog6, bumped).by_family(Family.TRIANGLE_AREA)
        assert after[0] - base[0] == pytest.approx(-8.0, abs=1e-12)
        assert after[0] == pytest.approx(-8.0, abs=1e-12)

    def test_dimension_mismatch(self, prog6):
        with pytest.raises(DimensionMismatch):
            evaluate(prog6, np.zeros(5))


class TestBuildRestriction:
    def test_residuals_agree_at_reference_point(self, prog6, pendant6_vector):
        sub = build_restriction(prog6, pendant6_vector)
        original = evaluate(prog6, pendant6_vector).residuals
        restricted = sub.residuals(pendant6_vector)
        assert np.abs(original - restricted).max() < 1e-12

    def test_triangle_bound_matches_displayed_inequality(self, prog6):
        # the linearized triangle-area constraint must be exactly
        #   (y'-x)^2 + (x'+y)^2 + 8u
        #     <= 2(b'+a)(y'+x) - (b'+a)^2 + 2(a'-b)(x'-y) - (a'-b)^2
        # where (a, b) is the reference point
        layout = prog6.layout
        c = RNG.uniform(-1.0, 1.0, prog6.dim)
        sub = build_restriction(prog6, c)
        for con in sub.constraints:
            if con.family is not Family.TRIANGLE_AREA:
                continue
            i, ip1 = con.vertices
            a_i, b_i = c[layout.x(i)], c[layout.y(i)]
            a_n, b_n = c[layout.x(ip1)], c[layout.y(ip1)]
            for _ in range(20):
                z = RNG.uniform(-1.0, 1.0, prog6.dim)
                rhs = (
                    2 * (b_n + a_i) * (z[layout.y(ip1)] + z[layout.x(i)])
                    - (b_n + a_i) ** 2
                    + 2 * (a_n - b_i) * (z[layout.x(ip1)] - z[layout.y(i)])
                    - (a_n - b_i) ** 2
                )
                lhs = (
                    (z[layout.y(ip1)] - z[layout.x(i)]) ** 2
                    + (z[layout.x(ip1)] + z[layout.y(i)]) ** 2
                    + 8 * z[layout.u(i)]
                )
                assert con.residual(z) == pytest.approx(rhs - lhs, abs=1e-10)

    def test_restriction_feasible_implies_original_feasible(self, prog6, pendant6_vector):
        sub = build_restriction(prog6, pendant6_vector)
        found = 0
        attempts = 0
        while found < 100 and attempts < 20000:
            attempts += 1
            z = pendant6_vector + RNG.normal(0.0, 0.004, prog6.dim)
            z[10:] -= 0.01  # pull the u components toward feasibility
            if not sub.is_feasible(z):
                continue
            found += 1
            assert evaluate(prog6, z).min_residual() >= -1e-12
        assert found == 100

    def test_objective_is_unchanged_linear_form(self, prog6, pendant6_vector):
        sub = build_restriction(prog6, pendant6_vector)
        assert sub.objective == prog6.objective_g.affine

    def test_convex_families_pass_through(self, prog6, pendant6_vector):
        sub = build_restriction(prog6, pendant6_vector)
        for con in sub.constraints:
            if con.family in (Family.DISTANCE, Family.RADIUS):
                assert con.bound.indices == ()
                assert con.bound.offset == 1.0
            if con.family in (Family.HALF_PLANE, Family.NONNEG_U):
                assert con.squares == ()

    def test_dimension_mismatch(self, prog6):
        with pytest.raises(DimensionMismatch):
            build_restriction(prog6, np.zeros(3))

    def test_rejects_nonfinite_reference(self, prog6):
        bad = np.zeros(prog6.dim)
        bad[0] = np.inf
        with pytest.raises(DimensionMismatch):
            build_restriction(prog6, bad)


def dense_G(cone):
    return np.column_stack([cone.matvec(e) for e in np.eye(cone.dim)])


def reference_points(n):
    """Start polygon, random points, the origin, and a random point with
    exact zeros (the pendant start also has its apex at x = 0 exactly)."""
    rng = np.random.default_rng(n)
    dim = 3 * n - 4
    start = (build_pendant_polygon(n) if n >= 6 and n % 2 == 0 else build_regular_polygon(n))
    with_zeros = rng.uniform(-1.0, 1.0, dim)
    with_zeros[::3] = 0.0
    return [polygon_to_vector(start), rng.uniform(-1.0, 1.0, dim),
            rng.uniform(-2.0, 2.0, dim), np.zeros(dim), with_zeros]


class TestConeTemplate:
    @pytest.mark.parametrize("n", [5, 6, 7, 16, 32])
    def test_matches_lifted_restriction(self, n):
        prog = build_program(n)
        template = ConeTemplate(n)
        for c in reference_points(n):
            reference = lift(build_restriction(prog, c))
            cone = template.at(c)
            assert cone.nonneg_families == reference.nonneg_families
            assert cone.soc_families == reference.soc_families
            assert np.array_equal(cone.c, reference.c)
            # G rows are the same products; h differs only in how the
            # tangent offset g(c) - grad g(c)^T c is rounded
            assert np.array_equal(dense_G(cone), dense_G(reference))
            np.testing.assert_allclose(cone.h, reference.h, rtol=0, atol=1e-14)

    def test_rewrite_keeps_no_state(self):
        first, second = reference_points(8)[:2]
        template = ConeTemplate(8)
        template.at(second)
        fresh = ConeTemplate(8).at(first)
        cone = template.at(first)
        assert np.array_equal(cone.soc_coef, fresh.soc_coef)
        assert np.array_equal(cone.h, fresh.h)

    def test_block_shape(self):
        cone = ConeTemplate(16).at(reference_points(16)[0])
        m = 15 * 14 // 2 + 15 + 14
        assert cone.soc_coef.shape == (4, 5, m)
        assert cone.soc_cols.shape == (5, m)
        assert cone.nn_cols.shape == cone.nn_coef.shape == (1, 15 + 14)
        assert cone.n_rows == 29 + 4 * m

    @pytest.mark.parametrize("n", [5, 6, 16, 32])
    def test_residuals_match_evaluate(self, n):
        prog = build_program(n)
        template = ConeTemplate(n)
        for z in reference_points(n):
            expected = evaluate(prog, z)
            report = template.evaluate(z)
            assert report.objective == pytest.approx(expected.objective, abs=1e-13)
            for family in Family:
                np.testing.assert_allclose(
                    report.by_family(family), expected.by_family(family), rtol=0, atol=1e-13
                )

    def test_rejects_bad_reference(self):
        template = ConeTemplate(6)
        with pytest.raises(DimensionMismatch):
            template.at(np.zeros(3))
        with pytest.raises(DimensionMismatch):
            template.at(np.full(14, np.nan))
        with pytest.raises(ValueError):
            ConeTemplate(3)


class TestTangentUnderestimation:
    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_gbar_below_g(self, seed):
        rng = np.random.default_rng(seed)
        prog = build_program(5)
        z = rng.uniform(-1.5, 1.5, prog.dim)
        c = rng.uniform(-1.5, 1.5, prog.dim)
        sub = build_restriction(prog, c)
        for con, rcon in zip(prog.constraints, sub.constraints):
            gbar = rcon.bound.value(z) + con.h.affine.value(z)
            assert gbar <= con.g.value(z) + 1e-10

    def test_equality_at_reference(self):
        prog = build_program(6)
        c = polygon_to_vector(build_pendant_polygon(6))
        sub = build_restriction(prog, c)
        for con, rcon in zip(prog.constraints, sub.constraints):
            gbar = rcon.bound.value(c) + con.h.affine.value(c)
            assert gbar == pytest.approx(con.g.value(c), abs=1e-12)


class TestGradients:
    def test_analytic_gradient_matches_finite_differences(self):
        prog = build_program(6)
        dim = prog.dim
        step = 1e-6
        for trial in range(5):
            z = RNG.uniform(-1.0, 1.0, dim)
            for con in prog.constraints[:: max(1, len(prog.constraints) // 9)]:
                grad = con.g.gradient(z, dim) - con.h.gradient(z, dim)
                for j in range(dim):
                    zp, zm = z.copy(), z.copy()
                    zp[j] += step
                    zm[j] -= step
                    fd = (con.residual(zp) - con.residual(zm)) / (2 * step)
                    scale = max(1.0, abs(grad[j]))
                    assert abs(grad[j] - fd) <= 1e-6 * scale


class TestVectorPacking:
    def test_round_trip_is_exact(self):
        poly = build_pendant_polygon(6)
        again = vector_to_polygon(polygon_to_vector(poly), 6)
        assert (again.vertices == poly.vertices).all()

    def test_forward_sets_u_to_triangle_areas(self):
        poly = build_pendant_polygon(8)
        z = polygon_to_vector(poly)
        layout = build_program(8).layout
        v = poly.vertices
        for i in range(1, 7):
            expected = (v[i + 1, 1] * v[i, 0] - v[i + 1, 0] * v[i, 1]) / 2.0
            assert z[layout.u(i)] == expected

    def test_objective_on_square(self):
        z = polygon_to_vector(build_regular_polygon(4))
        prog = build_program(4)
        assert evaluate(prog, z).objective == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vector_to_polygon(np.zeros(9), 6)


class TestDebugDump:
    def test_program_dump_lists_families(self, prog6):
        text = describe_program(prog6)
        for family in Family:
            assert family.value in text

    def test_subproblem_dump(self, prog6, pendant6_vector):
        text = describe_subproblem(build_restriction(prog6, pendant6_vector))
        assert "bound" in text and "triangle_area" in text
