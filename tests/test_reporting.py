"""Tables, SVG rendering, and run artifact export."""

import numpy as np
import pytest

from optigon.ccp import maximize_area, run_sweep
from optigon.verification import verify_structure
from optigon.geometry import (
    Polygon,
    area,
    build_pendant_polygon,
    build_regular_polygon,
    diameter_graph,
    polygon_from_json,
)
from optigon.reporting import (
    SweepRow,
    export_run,
    render_svg,
    render_table_csv,
    render_table_text,
    sweep_row,
    trace_csv,
)


@pytest.fixture(scope="module")
def hexagon_result():
    return maximize_area(6)


@pytest.fixture(scope="module")
def hexagon_report(hexagon_result):
    return verify_structure(hexagon_result.polygon)


@pytest.fixture(scope="module")
def hexagon_row(hexagon_result, hexagon_report):
    return sweep_row(hexagon_result, hexagon_report.passed)


class TestTable:
    def test_hexagon_row_fields(self, hexagon_row):
        assert hexagon_row.n == 6
        assert f"{hexagon_row.area_pendant:.10f}" == "0.6722882584"
        assert f"{hexagon_row.literature_lower_bound:.10f}" == "0.6749814429"
        assert f"{hexagon_row.upper_bound:.10f}" == "0.6961524227"
        assert hexagon_row.structure_pass
        assert (
            hexagon_row.area_pendant
            <= hexagon_row.area_computed
            <= hexagon_row.upper_bound
        )

    def test_text_row_matches_reference_columns(self, hexagon_row):
        text = render_table_text([hexagon_row])
        lines = text.splitlines()
        assert len(lines) == 2  # header + one row
        fields = [f.strip() for f in lines[1].split("|")]
        assert fields[0] == "6"
        assert fields[1] == "0.6722882584"
        assert fields[2] == "0.6749814429"
        assert fields[3] == "0.6961524227"
        assert fields[4] == f"{hexagon_row.area_computed:.10f}"
        assert fields[5] == str(hexagon_row.iterations)

    def test_missing_literature_bound_renders_as_dashes(self):
        row = SweepRow(
            n=82,
            area_pendant=0.7849095487,
            literature_lower_bound=None,
            upper_bound=0.7849178354,
            area_computed=0.7849111119,
            iterations=55,
            structure_pass=True,
        )
        assert "--" in render_table_text([row])
        csv_fields = render_table_csv([row]).splitlines()[1].split(",")
        assert csv_fields[2] == "--"

    def test_csv_round_trip_is_lossless_at_printed_precision(self, hexagon_row):
        line = render_table_csv([hexagon_row]).splitlines()[1]
        fields = line.split(",")
        assert float(fields[1]) == round(hexagon_row.area_pendant, 10)
        assert float(fields[4]) == round(hexagon_row.area_computed, 10)

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            render_table_text([])
        with pytest.raises(ValueError):
            render_table_csv([])


class TestSvg:
    def count(self, svg, marker):
        return svg.count(f'class="{marker}"')

    def test_hexagon_chord_and_boundary_counts(self, hexagon_result):
        svg = render_svg(hexagon_result.polygon)
        assert self.count(svg, "boundary") == 6
        assert self.count(svg, "chord") == 6

    def test_square_has_two_chords(self):
        svg = render_svg(build_regular_polygon(4))
        assert self.count(svg, "boundary") == 4
        assert self.count(svg, "chord") == 2

    def test_unit_triangle(self):
        tri = Polygon(np.array([(0.0, 0.0), (1.0, 0.0), (0.5, np.sqrt(3) / 2)]))
        svg = render_svg(tri)
        assert self.count(svg, "boundary") == 3
        assert self.count(svg, "chord") == 3

    def test_chord_count_equals_diameter_graph(self):
        for n in (6, 8, 14):
            poly = build_pendant_polygon(n)
            svg = render_svg(poly)
            assert self.count(svg, "chord") == len(diameter_graph(poly).edges)

    def test_deterministic_output(self, hexagon_result):
        first = render_svg(hexagon_result.polygon)
        second = render_svg(hexagon_result.polygon)
        assert first == second

    def test_labels_flag(self):
        svg = render_svg(build_pendant_polygon(6), vertex_labels=True)
        assert self.count(svg, "label") == 6


class TestTraceCsv:
    def test_columns(self, hexagon_result):
        lines = trace_csv(hexagon_result).splitlines()
        assert lines[0] == "k,area,rel_step,solver_iterations,max_residual"
        assert len(lines) == 2 + hexagon_result.iterations  # header + k=0 row
        first_row = lines[1].split(",")
        assert first_row[0] == "0"
        assert first_row[2] == ""  # no step before the first solve


class TestExportRun:
    def test_exports_four_files(self, hexagon_result, hexagon_report, tmp_path):
        paths = export_run(hexagon_result, tmp_path, hexagon_report)
        assert len(paths) == 4
        assert all(p.exists() for p in paths)
        assert {p.suffix for p in paths} == {".json", ".csv", ".svg"}
        assert all(p.parent.name == "n006" for p in paths)

    def test_polygon_artifact_round_trips_area(self, hexagon_result, hexagon_report, tmp_path):
        paths = export_run(hexagon_result, tmp_path, hexagon_report)
        polygon_path = next(p for p in paths if "polygon" in p.name)
        loaded = polygon_from_json(polygon_path.read_text())
        assert area(loaded) == hexagon_result.area

    def test_reexport_is_byte_identical(self, hexagon_result, hexagon_report, tmp_path):
        first = export_run(hexagon_result, tmp_path / "a", hexagon_report)
        second = export_run(hexagon_result, tmp_path / "b", hexagon_report)
        for p1, p2 in zip(first, second):
            assert p1.name == p2.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_sweep_export_creates_per_n_directories(self, tmp_path):
        results = run_sweep([6, 8])
        paths = [
            p for r in results for p in export_run(r, tmp_path, verify_structure(r.polygon))
        ]
        assert len(paths) == 8
        assert {p.parent.name for p in paths} == {"n006", "n008"}

    def test_failed_run_rejected(self, hexagon_report):
        from optigon.ccp import CcpResult, CcpStatus

        failed = CcpResult(
            n=6, polygon=None, area=float("nan"), iterations=0,
            status=CcpStatus.SUBPROBLEM_FAILURE, trace=None, message="boom",
        )
        with pytest.raises(ValueError):
            export_run(failed, "/tmp/nowhere", hexagon_report)
