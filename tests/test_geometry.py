"""Polygon primitives, closed-form areas, and the pendant construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optigon.errors import InvalidPolygon
from optigon.geometry import (
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
from optigon.literature import lower_bound

from shapes import build_regular_polygon

# published reference values (best known areas and closed-form columns)
PENDANT_6 = 0.6722882584
PENDANT_8 = 0.7253199909
PENDANT_128 = 0.7851988626
UPPER_6 = 0.6961524227
UPPER_12 = 0.7629992851

# final-iterate coordinates as printed in the source tables (6 decimals)
PRINTED_FINAL_6 = np.array(
    [
        (0.0, 0.0),
        (0.500000, 0.402352),
        (0.343773, 0.939053),
        (0.000000, 1.000000),
        (-0.343773, 0.939053),
        (-0.500000, 0.402352),
    ]
)


def square_r4() -> Polygon:
    return Polygon(np.array([(0.0, 0.0), (0.5, 0.5), (0.0, 1.0), (-0.5, 0.5)]))


class TestArea:
    def test_pendant_hexagon_matches_closed_form(self):
        assert area(build_pendant_polygon(6)) == pytest.approx(PENDANT_6, abs=1e-9)

    def test_collinear_triangle_has_zero_area(self):
        degenerate = Polygon(np.array([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]))
        assert area(degenerate) == 0.0

    def test_printed_final_hexagon_coordinates(self):
        # 6-decimal printed coordinates limit the achievable agreement to ~3e-7
        assert area(Polygon(PRINTED_FINAL_6)) == pytest.approx(0.6749814387, abs=1e-6)

    @given(
        st.lists(
            st.tuples(
                st.floats(-10, 10, allow_nan=False),
                st.floats(-10, 10, allow_nan=False),
            ),
            min_size=3,
            max_size=12,
        )
    )
    def test_reanchoring_invariance(self, coords):
        # the fan sum equals the shoelace area, which is invariant under
        # translating any vertex to the origin and rotating the index order
        base = np.asarray(coords)
        poly = Polygon(base - base[0])
        for j in range(len(coords)):
            rolled = np.roll(base, -j, axis=0)
            assert area(Polygon(rolled - rolled[0])) == pytest.approx(
                area(poly), abs=1e-12
            )


class TestDiameter:
    def test_pendant_polygons_have_unit_diameter(self):
        for n in (6, 8, 10, 30, 128):
            assert diameter(build_pendant_polygon(n)) == pytest.approx(1.0, abs=1e-12)

    def test_two_unit_points(self):
        poly = Polygon(np.array([(0.0, 0.0), (0.0, 1.0), (0.0, 0.5)]))
        assert diameter(poly) == 1.0

    def test_square_with_unit_diagonal(self):
        assert diameter(square_r4()) == pytest.approx(1.0, abs=1e-12)


class TestDiameterGraph:
    def test_pendant_hexagon_cycle_plus_pendant_edge(self):
        edges = diameter_graph(build_pendant_polygon(6))
        assert edges == [(0, 2), (0, 3), (0, 4), (1, 4), (1, 5), (2, 5)]

    def test_pendant_polygon_edge_structure(self):
        # (n-1)-cycle over every vertex except the apex n/2, plus one
        # pendant edge {0, n/2}
        for n in (6, 8, 12, 20):
            edges = diameter_graph(build_pendant_polygon(n))
            assert len(edges) == n
            deg = np.bincount(np.ravel(edges), minlength=n).tolist()
            assert deg[n // 2] == 1
            assert deg[0] == 3
            assert all(deg[i] == 2 for i in range(1, n) if i != n // 2)

    def test_square_diagonals_only(self):
        assert diameter_graph(square_r4()) == [(0, 2), (1, 3)]

    def test_unit_triangle_is_complete(self):
        tri = Polygon(np.array([(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2)]))
        assert len(diameter_graph(tri)) == 3

    def test_polygon_that_is_not_small(self):
        # v_1 moved outward by 1e-3: its two chords leave the unit band,
        # the pairs farther than one are not edges, and nothing raises
        v = build_pendant_polygon(6).vertices.copy()
        v[1, 0] += 1e-3
        assert diameter_graph(Polygon(v)) == [(0, 2), (0, 3), (0, 4), (2, 5)]


class TestClosedForms:
    def test_pendant_area_values(self):
        assert pendant_area(6) == pytest.approx(PENDANT_6, abs=1e-9)
        assert pendant_area(8) == pytest.approx(PENDANT_8, abs=1e-9)
        assert pendant_area(128) == pytest.approx(PENDANT_128, abs=1e-9)

    def test_upper_bound_values(self):
        assert upper_bound(6) == pytest.approx(UPPER_6, abs=1e-9)
        assert upper_bound(12) == pytest.approx(UPPER_12, abs=1e-9)

    def test_upper_bound_attained_for_odd_n(self):
        for n in (3, 7):
            assert area(build_regular_polygon(n)) == pytest.approx(upper_bound(n), abs=1e-15)

    def test_bound_sandwich_all_even_n(self):
        for n in range(6, 129, 2):
            assert area(build_regular_polygon(n)) < pendant_area(n) < upper_bound(n)

    def test_bounds_record(self):
        assert lower_bound(6) == pytest.approx(0.6749814429, abs=1e-12)
        assert pendant_area(6) < lower_bound(6) < upper_bound(6)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            pendant_area(7)
        with pytest.raises(ValueError):
            pendant_area(4)
        with pytest.raises(ValueError):
            upper_bound(1)


class TestPendantConstruction:
    def test_hexagon_vertices_match_printed_table(self):
        poly = build_pendant_polygon(6)
        printed = np.array(
            [
                (0.0, 0.0),
                (0.500000, 0.363271),
                (0.309017, 0.951057),
                (0.0, 1.0),
                (-0.309017, 0.951057),
                (-0.500000, 0.363271),
            ]
        )
        assert np.abs(poly.vertices - printed).max() < 1e-6

    def test_apex_is_exact(self):
        for n in (6, 8, 50, 128):
            poly = build_pendant_polygon(n)
            assert poly.vertices[n // 2, 0] == 0.0
            assert poly.vertices[n // 2, 1] == 1.0

    def test_area_matches_closed_form_for_all_even_n(self):
        for n in range(6, 129, 2):
            assert area(build_pendant_polygon(n)) == pytest.approx(
                pendant_area(n), abs=1e-12
            )

    def test_invariants_hold(self):
        for n in (6, 16, 128):
            build_pendant_polygon(n).validate()

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_pendant_polygon(7)
        with pytest.raises(ValueError):
            build_pendant_polygon(4)


class TestRegularConstruction:
    """The tests' regular polygons, the negative cases of the structure
    checks, are the shapes they are named for."""

    def test_matches_figure_square(self):
        assert np.abs(build_regular_polygon(4).vertices - square_r4().vertices).max() < 1e-15

    def test_area_matches_closed_form(self):
        # (n/8) sin(2 pi/n) for even n; odd n attain the upper bound
        for n in (3, 4, 5, 6, 8, 9):
            poly = build_regular_polygon(n)
            closed = n / 8 * math.sin(2 * math.pi / n) if n % 2 == 0 else upper_bound(n)
            assert area(poly) == pytest.approx(closed, abs=1e-12)
            assert diameter(poly) == pytest.approx(1.0, abs=1e-12)

    def test_regular_hexagon_diameter_graph_is_matching(self):
        assert diameter_graph(build_regular_polygon(6)) == [(0, 3), (1, 4), (2, 5)]


class TestPolygonValidation:
    def test_construction_rejects_nan(self):
        with pytest.raises(InvalidPolygon):
            Polygon(np.array([(0.0, 0.0), (1.0, float("nan")), (0.0, 1.0)]))

    def test_construction_rejects_small_n(self):
        with pytest.raises(InvalidPolygon):
            Polygon(np.array([(0.0, 0.0), (1.0, 0.0)]))

    def test_validate_rejects_offset_anchor(self):
        poly = Polygon(np.array([(0.1, 0.0), (1.0, 0.0), (0.5, 0.5)]))
        with pytest.raises(InvalidPolygon):
            poly.validate()

    def test_validate_rejects_lower_half_plane(self):
        poly = Polygon(np.array([(0.0, 0.0), (1.0, -0.5), (0.5, 0.5)]))
        with pytest.raises(InvalidPolygon):
            poly.validate()

    def test_validate_rejects_clockwise_order(self):
        poly = Polygon(np.array([(0.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.9, 0.9)]))
        with pytest.raises(InvalidPolygon):
            poly.validate()

    def test_vertices_are_immutable(self):
        poly = build_pendant_polygon(6)
        with pytest.raises(ValueError):
            poly.vertices[0, 0] = 1.0


class TestJsonRoundTrip:
    def test_exact_round_trip(self):
        poly = build_pendant_polygon(10)
        again = polygon_from_json(polygon_to_json(poly))
        assert (again.vertices == poly.vertices).all()

    @settings(max_examples=50)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1, 1, allow_nan=False, width=64),
                st.floats(-1, 1, allow_nan=False, width=64),
            ),
            min_size=3,
            max_size=10,
        )
    )
    def test_round_trip_arbitrary_coordinates(self, coords):
        poly = Polygon(np.asarray(coords))
        again = polygon_from_json(polygon_to_json(poly))
        assert (again.vertices == poly.vertices).all()

    def test_file_round_trip(self, tmp_path):
        poly = build_pendant_polygon(8)
        path = tmp_path / "poly.json"
        path.write_text(polygon_to_json(poly), encoding="utf-8")
        assert (load_polygon(path).vertices == poly.vertices).all()

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidPolygon):
            polygon_from_json('{"n": 3, "vertices": [[0, 0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"n": "three", "vertices": []}',
            '{"n": 3, "vertices": 5}',
            '{"n": 3, "vertices": [[0, 0], [{}, 0], [0, 1]]}',
            '{"n": 3, "vertices": [[0, 0], [1' + "0" * 400 + ', 0], [0, 1]]}',
            '{"n": 3, "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}',
            '{"n": 3.5, "vertices": [[0, 0], [1, 0], [0, 1]]}',
            '{"n": "3", "vertices": [[0, 0], [1, 0], [0, 1]]}',
            '{"n": true, "vertices": [[0, 0]]}',
        ],
        ids=["not_an_object", "non_integer_n", "non_list", "object_entry", "overflow", "3d",
             "fractional_n", "string_n", "boolean_n"],
    )
    def test_malformed_types_rejected(self, text):
        with pytest.raises(InvalidPolygon):
            polygon_from_json(text)
