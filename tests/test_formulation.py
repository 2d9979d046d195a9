"""The cone template: the program's rows, its restrictions, and evaluation.

`ConeTemplate(n)` builds the program, `at(c, keep)` its restriction at c
and `evaluate(z)` its residuals; `reference_program` writes the same residuals
out in closed form.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optigon.errors import DimensionMismatch
from optigon.formulation import ConeTemplate, polygon_to_vector, vector_to_polygon
from optigon.geometry import Polygon, area, build_pendant_polygon, pendant_area

from reference_program import fan_residuals, restriction_residuals

RNG = np.random.default_rng(20240817)

# the mask of `ConeTemplate(6).at` that keeps every distance pair
EVERY_PAIR6 = np.ones(ConeTemplate(6).n_pairs, dtype=bool)


# positions in z = (x_1..x_{n-1}, y_1..y_{n-1}, u_1..u_{n-2}) of x_i, y_i, u_i
def x_at(i):
    return i - 1


def y_at(n, i):
    return n - 1 + i - 1


def u_at(n, i):
    return 2 * (n - 1) + i - 1


@pytest.fixture(scope="module")
def template6():
    return ConeTemplate(6)


@pytest.fixture(scope="module")
def pendant6_vector():
    return polygon_to_vector(build_pendant_polygon(6))


class TestBuildProgram:
    def test_dimension_and_family_counts(self, template6, pendant6_vector):
        cone = template6.at(pendant6_vector, EVERY_PAIR6)
        assert template6.dim == 14
        assert (template6.n_pairs, cone.n_nonneg, cone.n_soc) == (10, 5 + 4, 10 + 5 + 4)

    def test_counts_formula_general(self):
        for n in (6, 8, 14, 16):
            template = ConeTemplate(n)
            cone = template.at(np.zeros(template.dim), np.ones(template.n_pairs, dtype=bool))
            assert template.n_pairs == (n - 1) * (n - 2) // 2
            assert cone.n_nonneg == (n - 1) + (n - 2)
            assert cone.n_soc == template.n_pairs + (n - 1) + (n - 2)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            ConeTemplate(3)

    def test_dc_identity_at_random_points(self, template6):
        # g - h must equal 4*(y_{i+1} x_i - x_{i+1} y_i - 2 u_i) identically
        for _ in range(1000):
            z = RNG.uniform(-2.0, 2.0, 14)
            for residuals in (template6.evaluate(z).residuals, restriction_residuals(6, z, z)):
                assert np.abs(residuals[-4:] - fan_residuals(6, z)).max() < 1e-10

    def test_pendant_start_is_feasible(self, template6, pendant6_vector):
        assert template6.evaluate(pendant6_vector).min_residual() >= -1e-12


class TestEvaluate:
    def test_printed_final_point(self, template6):
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
        report = template6.evaluate(polygon_to_vector(printed))
        # printed 6-decimal coordinates: agreement limited to ~3e-7
        assert report.objective == pytest.approx(0.6749814387, abs=1e-6)
        assert report.min_residual() >= -1e-6

    def test_origin_point_is_feasible(self, template6):
        report = template6.evaluate(np.zeros(14))
        assert report.objective == 0.0
        assert report.min_residual() >= 0.0

    def test_inflating_u_drops_residual_by_eight(self, template6, pendant6_vector):
        u1 = u_at(6, 1)
        base = template6.evaluate(pendant6_vector).residuals[-4:]
        bumped = pendant6_vector.copy()
        bumped[u1] += 1.0
        after = template6.evaluate(bumped).residuals[-4:]
        assert after[0] - base[0] == pytest.approx(-8.0, abs=1e-12)
        assert after[0] == pytest.approx(-8.0, abs=1e-12)

    def test_dimension_mismatch(self, template6):
        with pytest.raises(DimensionMismatch):
            template6.evaluate(np.zeros(5))


class TestBuildRestriction:
    def test_residuals_agree_at_reference_point(self, pendant6_vector):
        restricted = ConeTemplate(6).at(pendant6_vector, EVERY_PAIR6).residuals(pendant6_vector)
        original = restriction_residuals(6, pendant6_vector, pendant6_vector)
        assert np.abs(original - restricted).max() < 1e-12

    def test_triangle_bound_matches_displayed_inequality(self):
        # the linearized triangle-area constraint must be exactly
        #   (y'-x)^2 + (x'+y)^2 + 8u
        #     <= 2(b'+a)(y'+x) - (b'+a)^2 + 2(a'-b)(x'-y) - (a'-b)^2
        # where (a, b) is the reference point
        c = RNG.uniform(-1.0, 1.0, 14)
        cone = ConeTemplate(6).at(c, EVERY_PAIR6)
        for i in range(1, 5):
            xi, yi, ui = x_at(i), y_at(6, i), u_at(6, i)
            xn, yn = x_at(i + 1), y_at(6, i + 1)
            a_i, b_i, a_n, b_n = c[xi], c[yi], c[xn], c[yn]
            for _ in range(20):
                z = RNG.uniform(-1.0, 1.0, 14)
                rhs = (
                    2 * (b_n + a_i) * (z[yn] + z[xi])
                    - (b_n + a_i) ** 2
                    + 2 * (a_n - b_i) * (z[xn] - z[yi])
                    - (a_n - b_i) ** 2
                )
                lhs = (z[yn] - z[xi]) ** 2 + (z[xn] + z[yi]) ** 2 + 8 * z[ui]
                assert cone.residuals(z)[i - 5] == pytest.approx(rhs - lhs, abs=1e-10)

    def test_restriction_feasible_implies_original_feasible(self, template6, pendant6_vector):
        restriction = ConeTemplate(6).at(pendant6_vector, EVERY_PAIR6)
        found = 0
        attempts = 0
        while found < 100 and attempts < 20000:
            attempts += 1
            z = pendant6_vector + RNG.normal(0.0, 0.004, 14)
            z[10:] -= 0.01  # pull the u components toward feasibility
            if restriction.residuals(z).min() < 0.0:
                continue
            found += 1
            assert template6.evaluate(z).min_residual() >= -1e-12
        assert found == 100

    def test_objective_is_unchanged_linear_form(self, pendant6_vector):
        # minimize -sum u_i, whatever the reference point
        cone = ConeTemplate(6).at(pendant6_vector, EVERY_PAIR6)
        assert np.array_equal(cone.c, np.r_[np.zeros(10), -np.ones(4)])

    def test_convex_families_pass_through(self, pendant6_vector):
        # only the four triangle-area blocks depend on the reference point
        template = ConeTemplate(6)
        first = template.at(pendant6_vector, EVERY_PAIR6)
        coef, h = first.soc_coef.copy(), first.h.copy()
        second = template.at(RNG.uniform(-1.0, 1.0, 14), EVERY_PAIR6)
        assert np.array_equal(second.soc_coef[:, :, :-4], coef[:, :, :-4])
        assert np.array_equal(second.h[:9], h[:9])
        assert np.array_equal(second.h[9:].reshape(4, -1)[:, :-4], h[9:].reshape(4, -1)[:, :-4])

    def test_dimension_mismatch(self, template6):
        with pytest.raises(DimensionMismatch):
            template6.at(np.zeros(15), EVERY_PAIR6)

    def test_rejects_nonfinite_reference(self, template6):
        bad = np.zeros(14)
        bad[0] = np.inf
        with pytest.raises(DimensionMismatch):
            template6.at(bad, EVERY_PAIR6)


def reference_points(n):
    """Start polygon, random points, the origin, and a random point with
    exact zeros (the pendant start also has its apex at x = 0 exactly)."""
    rng = np.random.default_rng(n)
    dim = 3 * n - 4
    with_zeros = rng.uniform(-1.0, 1.0, dim)
    with_zeros[::3] = 0.0
    return [polygon_to_vector(build_pendant_polygon(n)), rng.uniform(-1.0, 1.0, dim),
            rng.uniform(-2.0, 2.0, dim), np.zeros(dim), with_zeros]


class TestConeTemplate:
    @pytest.mark.parametrize("n", [6, 8, 16, 32])
    def test_matches_lifted_restriction(self, n):
        # the template's cone, the restriction lifted to Q^4 blocks, has the
        # closed-form residuals of the restriction at every point; each block
        # is ((1 + b)/2, l_1, l_2, (1 - b)/2), whose rows 0 and 3 sum to 1
        template = ConeTemplate(n)
        every = np.ones(template.n_pairs, dtype=bool)
        points = reference_points(n)
        for c in points:
            cone = template.at(c, every)
            assert np.array_equal(cone.c, np.r_[np.zeros(2 * n - 2), -np.ones(n - 2)])
            for z in points:
                np.testing.assert_allclose(
                    cone.residuals(z), restriction_residuals(n, c, z), rtol=0, atol=1e-13
                )
                s = (cone.h - cone.matvec(z))[cone.n_nonneg:].reshape(4, -1)
                np.testing.assert_allclose(s[0] + s[3], 1.0, rtol=0, atol=1e-13)

    def test_rewrite_keeps_no_state(self):
        first, second = reference_points(8)[:2]
        template = ConeTemplate(8)
        every = np.ones(template.n_pairs, dtype=bool)
        template.at(second, every)
        fresh = ConeTemplate(8).at(first, every)
        cone = template.at(first, every)
        assert np.array_equal(cone.soc_coef, fresh.soc_coef)
        assert np.array_equal(cone.h, fresh.h)

    def test_block_shape(self):
        template = ConeTemplate(16)
        cone = template.at(reference_points(16)[0], np.ones(template.n_pairs, dtype=bool))
        m = 15 * 14 // 2 + 15 + 14
        assert cone.soc_coef.shape == (4, 5, m)
        assert cone.soc_cols.shape == (5, m)
        assert cone.nn_cols.shape == (15 + 14,)
        assert cone.n_rows == 29 + 4 * m

    @pytest.mark.parametrize("n", [6, 8, 16, 32])
    def test_residuals_match_evaluate(self, n):
        template = ConeTemplate(n)
        for z in reference_points(n):
            report = template.evaluate(z)
            assert report.objective == pytest.approx(z[2 * n - 2:].sum(), abs=1e-13)
            np.testing.assert_allclose(
                report.residuals, restriction_residuals(n, z, z), rtol=0, atol=1e-13
            )

    @pytest.mark.parametrize("n", [6, 32])
    def test_screened_rows_match_full(self, n):
        template = ConeTemplate(n)
        rng = np.random.default_rng(n)
        keep = rng.random(template.n_pairs) < 0.3
        for z in reference_points(n):
            full = template.at(z, np.ones(template.n_pairs, dtype=bool))
            sub = template.at(z, keep)
            blocks = np.concatenate([keep, np.ones(full.n_soc - template.n_pairs, bool)])
            rows = np.concatenate(
                [np.ones(full.n_nonneg, bool), np.tile(blocks, 4)]
            )
            assert sub.n_soc == int(blocks.sum())
            assert np.array_equal(sub.h, full.h[rows])
            x = rng.uniform(-1.0, 1.0, full.dim)
            assert np.array_equal(sub.matvec(x), full.matvec(x)[rows])
        with pytest.raises(ValueError):
            template.at(z, keep[1:])

    @pytest.mark.parametrize("n", [6, 16, 64])
    def test_evaluate_is_the_full_restriction_at_z(self, n):
        # the closed-form distance residuals are the distance blocks' own
        template = ConeTemplate(n)
        every = np.ones(template.n_pairs, dtype=bool)
        rng = np.random.default_rng(n)
        for z in [*reference_points(n), *rng.uniform(-2.0, 2.0, (20, 3 * n - 4))]:
            assert np.array_equal(template.evaluate(z).residuals,
                                  template.at(z, every).residuals(z))

    def test_template_holds_pair_columns_only(self):
        # the distance pairs are ~n^2/2 of the blocks; at n = 512 their
        # coefficients, columns and h as cone blocks took 30 MB
        tracemalloc.start()
        try:
            template = ConeTemplate(512)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert template.pairs.shape == (4, template.n_pairs)
        assert held < 8e6

    @pytest.mark.parametrize("n", [6, 32])
    def test_distance_sq_in_pair_order(self, n):
        template = ConeTemplate(n)
        i, j = np.triu_indices(n - 1, k=1)
        for z in reference_points(n):
            v = vector_to_polygon(z, n).vertices[1:]
            expected = ((v[j] - v[i]) ** 2).sum(axis=1)
            assert np.array_equal(template.distance_sq(z), expected)

    def test_rejects_bad_reference(self):
        template = ConeTemplate(6)
        with pytest.raises(DimensionMismatch):
            template.at(np.zeros(3), EVERY_PAIR6)
        with pytest.raises(DimensionMismatch):
            template.at(np.full(14, np.nan), EVERY_PAIR6)


class TestTangentUnderestimation:
    """The restriction's residual at z is at most the program's: the tangent
    of g at c lies below g, and touches it at c."""

    @settings(max_examples=200)
    @given(st.integers(0, 2**32 - 1))
    def test_gbar_below_g(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.uniform(-1.5, 1.5, 14)
        c = rng.uniform(-1.5, 1.5, 14)
        restricted = ConeTemplate(6).at(c, EVERY_PAIR6).residuals(z)
        assert (restricted <= ConeTemplate(6).evaluate(z).residuals + 1e-10).all()

    def test_equality_at_reference(self):
        c = polygon_to_vector(build_pendant_polygon(6))
        expected = restriction_residuals(6, c, c)
        expected[-4:] = fan_residuals(6, c)
        restricted = ConeTemplate(6).at(c, EVERY_PAIR6).residuals(c)
        np.testing.assert_allclose(restricted, expected, rtol=0, atol=1e-12)


class TestGradients:
    def test_analytic_gradient_matches_finite_differences(self):
        # restriction minus program is gbar - g, whose gradient vanishes at c
        restriction, program = ConeTemplate(6), ConeTemplate(6)
        step = 1e-6
        for trial in range(5):
            c = RNG.uniform(-1.0, 1.0, 14)
            cone = restriction.at(c, EVERY_PAIR6)
            for j in range(14):
                zp, zm = c.copy(), c.copy()
                zp[j] += step
                zm[j] -= step
                gap_p = cone.residuals(zp) - program.evaluate(zp).residuals
                gap_m = cone.residuals(zm) - program.evaluate(zm).residuals
                assert np.abs(gap_p - gap_m).max() / (2 * step) <= 1e-6


class TestVectorPacking:
    def test_round_trip_is_exact(self):
        poly = build_pendant_polygon(6)
        again = vector_to_polygon(polygon_to_vector(poly), 6)
        assert (again.vertices == poly.vertices).all()

    def test_forward_sets_u_to_triangle_areas(self):
        poly = build_pendant_polygon(8)
        z = polygon_to_vector(poly)
        v = poly.vertices
        for i in range(1, 7):
            expected = (v[i + 1, 1] * v[i, 0] - v[i + 1, 0] * v[i, 1]) / 2.0
            assert z[u_at(8, i)] == expected

    def test_objective_on_pendant_hexagon(self):
        poly = build_pendant_polygon(6)
        objective = ConeTemplate(6).evaluate(polygon_to_vector(poly)).objective
        assert objective == pytest.approx(pendant_area(6), abs=1e-12)
        assert objective == pytest.approx(area(poly), abs=1e-15)

    def test_dimension_mismatch(self):
        for z in (np.zeros(9), np.full(14, np.nan)):
            with pytest.raises(DimensionMismatch):
                vector_to_polygon(z, 6)

