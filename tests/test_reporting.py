"""Tables, SVG rendering, and run artifact export."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import optigon
from optigon.ccp import CcpResult, CcpStatus, failed_result, maximize_area, run_sweep
from optigon.verification import verify_structure
from optigon.geometry import (
    Polygon,
    area,
    build_pendant_polygon,
    diameter_graph,
    pendant_area,
    polygon_from_json,
)
from optigon.reporting import (
    CSV_HEADER,
    TEXT_HEADER,
    export_run,
    render_svg,
    render_table_csv,
    render_table_text,
    trace_csv,
)

from shapes import build_regular_polygon


def run_fresh(code: str) -> list[str]:
    """Run code in a fresh interpreter that imports optigon from this tree;
    return the words of its last stdout line."""
    src = str(Path(optigon.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {src!r})\n{code}"],
        capture_output=True, text=True, check=True,
    ).stdout
    return out.splitlines()[-1].split()


def converged(n: int, area: float, iterations: int) -> CcpResult:
    """A converged run with no polygon: the tables read n, area and
    iterations only."""
    return CcpResult(
        n=n, polygon=None, area=area, iterations=iterations,
        status=CcpStatus.CONVERGED, trace=None,
    )


# n = 82 has no literature bound
PINNED_RESULTS = [converged(6, 0.6749814429497, 5), converged(82, 0.7849111119, 55)]


@pytest.fixture(scope="module")
def hexagon_result():
    return maximize_area(6)


@pytest.fixture(scope="module")
def hexagon_report(hexagon_result):
    return verify_structure(hexagon_result.polygon)


class TestTable:
    def test_hexagon_row_fields(self, hexagon_result):
        n, pendant, literature, upper, computed, _ = (
            render_table_csv([hexagon_result]).splitlines()[1].split(",")
        )
        assert n == "6"
        assert pendant == "0.6722882584"
        assert literature == "0.6749814429"
        assert upper == "0.6961524227"
        assert float(pendant) <= float(computed) <= float(upper)

    def test_text_row_matches_reference_columns(self, hexagon_result):
        text = render_table_text([hexagon_result])
        lines = text.splitlines()
        assert len(lines) == 2  # header + one row
        fields = [f.strip() for f in lines[1].split("|")]
        assert fields[0] == "6"
        assert fields[1] == "0.6722882584"
        assert fields[2] == "0.6749814429"
        assert fields[3] == "0.6961524227"
        assert fields[4] == f"{hexagon_result.area:.10f}"
        assert fields[5] == str(hexagon_result.iterations)

    def test_missing_literature_bound_renders_as_dashes(self):
        result = converged(82, 0.7849111119, 55)
        assert "--" in render_table_text([result])
        csv_fields = render_table_csv([result]).splitlines()[1].split(",")
        assert csv_fields[2] == "--"

    def test_csv_round_trip_is_lossless_at_printed_precision(self, hexagon_result):
        line = render_table_csv([hexagon_result]).splitlines()[1]
        fields = line.split(",")
        assert float(fields[1]) == round(pendant_area(6), 10)
        assert float(fields[4]) == round(hexagon_result.area, 10)

    def test_text_table_bytes(self):
        assert render_table_text(PINNED_RESULTS) == (
            "   n | pendant_area | literature   | upper_bound  | computed_area | iterations\n"
            "   6 | 0.6722882584 | 0.6749814429 | 0.6961524227 | 0.6749814429 |          5\n"
            "  82 | 0.7849095487 | --           | 0.7849178354 | 0.7849111119 |         55\n"
        )

    def test_csv_table_bytes(self):
        assert render_table_csv(PINNED_RESULTS) == (
            "n,pendant_area,literature_lower_bound,upper_bound,computed_area,iterations\n"
            "6,0.6722882584,0.6749814429,0.6961524227,0.6749814429,5\n"
            "82,0.7849095487,--,0.7849178354,0.7849111119,55\n"
        )

    def test_empty_rows_render_the_header(self):
        assert render_table_text([]) == TEXT_HEADER + "\n"
        assert render_table_csv([]) == CSV_HEADER + "\n"


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
            assert self.count(svg, "chord") == len(diameter_graph(poly))

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

    def test_run_without_trace_is_rejected(self):
        with pytest.raises(ValueError, match="n=6 has no trace: worker process died"):
            trace_csv(failed_result(6, "worker process died"))


class TestExportRun:
    def test_exports_four_files(self, hexagon_result, hexagon_report, tmp_path):
        paths = export_run(hexagon_result, tmp_path, hexagon_report)
        assert len(paths) == 4
        assert all(p.exists() for p in paths)
        assert {p.suffix for p in paths} == {".json", ".csv", ".svg"}
        assert all(p.parent.name == "n006" for p in paths)
        for p in paths:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()[:12]
            assert p.stem.endswith(f"-{digest}")

    def test_import_leaves_openssl_unloaded(self, tmp_path):
        # hashlib loads OpenSSL's libcrypto; optigon names its artifacts with
        # CPython's built-in SHA-256 instead. numpy 1.x loads it itself
        # (numpy.random imports secrets, hence hmac), so optigon is held to
        # leaving it unloaded when numpy alone does, on import and on a sweep
        # that writes its artifacts
        sweep = f"assert optigon.cli.main(['sweep', '--from', '6', '--to', '8', " \
            f"'--jobs', '1', '--out', {str(tmp_path / 'out')!r}]) == 0"
        for work in ("", sweep):
            out = run_fresh(
                "import numpy\n"
                "numpy_loads = '_hashlib' in sys.modules\n"
                "import optigon.cli\n"
                f"{work}\n"
                "print(optigon.__file__, numpy_loads, '_hashlib' in sys.modules)"
            )
            assert out[0] == optigon.__file__
            assert out[2] == out[1]  # optigon loads it only if numpy did
        assert len(list((tmp_path / "out").glob("n00[68]/*"))) == 8

    def test_hashlib_fallback_names_files_alike(self, hexagon_result, hexagon_report, tmp_path):
        # an interpreter built without CPython's own hash modules takes
        # sha256 from hashlib, and names every artifact the same
        out = run_fresh(
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from optigon import ccp, reporting, verification\n"
            "assert reporting.sha256 is hashlib.sha256\n"
            "result = ccp.maximize_area(6)\n"
            f"paths = reporting.export_run(result, {str(tmp_path / 'fallback')!r}, "
            "verification.verify_structure(result.polygon))\n"
            "print(*(p.name for p in paths))"
        )
        paths = export_run(hexagon_result, tmp_path / "builtin", hexagon_report)
        assert out == [p.name for p in paths]

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

    def test_unwritable_target_is_os_error(self, hexagon_result, hexagon_report, tmp_path):
        out = tmp_path / "out"
        out.write_text("")  # a file where the directory tree would go
        message = f"failed to write run artifacts under {out / 'n006'}: "
        with pytest.raises(OSError, match=re.escape(message)):
            export_run(hexagon_result, out, hexagon_report)

    def test_failed_run_rejected(self, hexagon_report):
        from optigon.ccp import CcpResult, CcpStatus

        failed = CcpResult(
            n=6, polygon=None, area=float("nan"), iterations=0,
            status=CcpStatus.SUBPROBLEM_FAILURE, trace=None, message="boom",
        )
        with pytest.raises(ValueError):
            export_run(failed, "/tmp/nowhere", hexagon_report)
