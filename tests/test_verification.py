"""Structure report: pendant cycle, axial symmetry, unit chords."""

import json

import numpy as np
import pytest

from optigon.geometry import Polygon, build_pendant_polygon, diameter_graph
from optigon.verification import _pendant_cycle, report_to_json, unit_chord_pairs, verify_structure

from shapes import build_regular_polygon

# figure coordinates of the largest small hexagon and octagon (4 decimals)
FIGURE_U6 = Polygon(
    np.array(
        [
            (0.0, 0.0),
            (0.5000, 0.4024),
            (0.3438, 0.9391),
            (0.0, 1.0),
            (-0.3438, 0.9391),
            (-0.5000, 0.4024),
        ]
    )
)
FIGURE_U8 = Polygon(
    np.array(
        [
            (0.0, 0.0),
            (0.4091, 0.2238),
            (0.5000, 0.6404),
            (0.2621, 0.9650),
            (0.0, 1.0),
            (-0.2621, 0.9650),
            (-0.5000, 0.6404),
            (-0.4091, 0.2238),
        ]
    )
)


class TestPendantCycle:
    def test_figure_hexagon_passes(self):
        report = verify_structure(FIGURE_U6, tol=1e-3)
        assert report.has_pendant_cycle
        assert report.pendant_vertex == 3
        assert report.cycle_length == 5

    def test_regular_hexagon_fails(self):
        # its unit-distance graph is a perfect matching of three diagonals
        report = verify_structure(build_regular_polygon(6), tol=1e-9)
        assert not report.has_pendant_cycle
        assert (report.cycle_length, report.pendant_vertex) == (0, None)

    def test_regular_octagon_fails(self):
        report = verify_structure(build_regular_polygon(8), tol=1e-9)
        assert not report.has_pendant_cycle

    def test_pendant_construction_passes_for_many_n(self):
        for n in (6, 8, 10, 16, 40):
            report = verify_structure(build_pendant_polygon(n), tol=1e-9)
            assert report.has_pendant_cycle
            assert report.pendant_vertex == n // 2
            assert report.cycle_length == n - 1

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError, match="even"):
            verify_structure(build_regular_polygon(5), tol=1e-6)

    def test_one_leaf_with_wrong_degrees_fails(self):
        # leaf 3 on anchor 0 of the 5-cycle 0-1-2-4-5, whose chord 1-4
        # gives two vertices off the anchor degree 3
        edges = [(0, 3), (0, 1), (1, 2), (2, 4), (4, 5), (0, 5), (1, 4)]
        assert _pendant_cycle(6, edges) == (False, 0, None)
        assert _pendant_cycle(6, edges[:-1]) == (True, 5, 3)


class TestAxialSymmetry:
    def test_pendant_construction_is_symmetric(self):
        for n in (6, 10, 32):
            report = verify_structure(build_pendant_polygon(n), tol=1e-12)
            assert report.symmetry_defect <= 1e-12
            assert report.apex_defect <= 1e-12

    def test_planted_defect_is_detected(self):
        v = build_pendant_polygon(6).vertices.copy()
        v[1, 0] -= 1e-3  # inward, so that the polygon stays small
        report = verify_structure(Polygon(v), tol=1e-6)
        assert not report.passed
        assert report.symmetry_defect >= 1e-3

    def test_figure_octagon_within_print_precision(self):
        report = verify_structure(FIGURE_U8, tol=5e-5)
        assert report.symmetry_defect <= 5e-5 and report.apex_defect <= 5e-5


class TestUnitChords:
    def test_expected_pair_list(self):
        assert unit_chord_pairs(6) == [(0, 2), (0, 4), (1, 4), (1, 5), (2, 5)]

    def test_figure_octagon_defects_small(self):
        # 4-decimal printed coordinates carry rounding up to ~1e-4 per chord
        report = verify_structure(FIGURE_U8, tol=1e-4)
        assert [pair for pair, _ in report.unit_edge_defects] == unit_chord_pairs(8)
        assert max(defect for _, defect in report.unit_edge_defects) <= 1e-4

    def test_pendant_construction_is_exact(self):
        report = verify_structure(build_pendant_polygon(10), tol=1e-12)
        assert max(defect for _, defect in report.unit_edge_defects) <= 1e-12
        assert report.max_defect <= 1e-12

    def test_regular_octagon_fails(self):
        report = verify_structure(build_regular_polygon(8), tol=1e-6)
        assert max(defect for _, defect in report.unit_edge_defects) > 1e-6


class TestStructureReport:
    def test_pendant_polygon_report_passes(self):
        report = verify_structure(build_pendant_polygon(8), tol=1e-9)
        assert report.passed
        assert report.pendant_vertex == 4
        assert report.max_defect <= 1e-12

    def test_chord_pairs_subset_of_diameter_graph(self):
        for n in (6, 8, 12):
            poly = build_pendant_polygon(n)
            report = verify_structure(poly, tol=1e-9)
            assert report.passed
            edges = diameter_graph(poly, tol_diam=1e-9)
            for pair, _ in report.unit_edge_defects:
                assert pair in edges

    def test_json_round_trip(self):
        report = verify_structure(build_pendant_polygon(6))
        payload = json.loads(report_to_json(report))
        assert payload["n"] == 6
        assert payload["passed"] is True
        assert payload["pendant_vertex"] == 3
        assert len(payload["unit_edge_defects"]) == 5

    def test_json_bytes(self):
        report = verify_structure(build_pendant_polygon(6))
        expected = {
            "n": 6,
            "tol": 1e-6,
            "passed": True,
            "has_pendant_cycle": True,
            "cycle_length": 5,
            "pendant_vertex": 3,
            "symmetry_defect": 0.0,
            "apex_defect": 0.0,
            "max_defect": 0.0,
            "unit_edge_defects": [
                {"pair": [0, 2], "defect": 0.0},
                {"pair": [0, 4], "defect": 0.0},
                {"pair": [1, 4], "defect": 0.0},
                {"pair": [1, 5], "defect": 0.0},
                {"pair": [2, 5], "defect": 0.0},
            ],
        }
        assert report_to_json(report) == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("tol", [True, "1e-5", None])
    def test_tolerance_must_be_a_real_number(self, tol):
        # True used to pass as 1.0; a string or None raised TypeError
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            verify_structure(build_pendant_polygon(6), tol=tol)

    def test_failing_report(self):
        report = verify_structure(build_regular_polygon(6), tol=1e-6)
        assert not report.passed

    def test_polygon_that_is_not_small_fails(self):
        v = build_pendant_polygon(6).vertices.copy()
        v[1, 0] += 1e-3  # outward: the diameter becomes 1.001
        report = verify_structure(Polygon(v), tol=1e-6)
        assert not report.passed
        assert (report.has_pendant_cycle, report.cycle_length, report.pendant_vertex) == (
            False, 0, None)
        assert report.symmetry_defect >= 1e-3
