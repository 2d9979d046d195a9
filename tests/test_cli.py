"""Command-line interface: subcommands, formats, exit codes."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from optigon import ccp, cli, reporting, verification
from optigon.ccp import maximize_area
from optigon.cli import main
from optigon.conic_solver import SolverResult, SolverStatus
from optigon.geometry import build_pendant_polygon, save_polygon


@pytest.fixture()
def pendant_json(tmp_path):
    path = tmp_path / "pendant6.json"
    save_polygon(build_pendant_polygon(6), path)
    return path


class TestSolve:
    def test_hexagon_output(self, capsys):
        assert main(["solve", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "k=5" in out
        area = float(next(l for l in out.splitlines() if "n=6 area=" in l).split("area=")[1].split()[0])
        assert abs(area - 0.6749814387) < 1e-7
        assert "structure=pass" in out

    def test_odd_n_is_usage_error(self, capsys):
        assert main(["solve", "--n", "7"]) == 2
        err = capsys.readouterr().err
        assert "even" in err
        assert "Traceback" not in err

    def test_too_small_n_is_usage_error(self):
        assert main(["solve", "--n", "4"]) == 2

    def test_json_format(self, capsys):
        assert main(["solve", "--n", "6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["n"] == 6
        assert abs(payload[0]["area"] - 0.6749814387) < 1e-7
        assert payload[0]["structure_pass"] is True

    def test_csv_format(self, capsys):
        assert main(["solve", "--n", "6", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("n,pendant_area")
        assert lines[1].startswith("6,0.6722882584,0.6749814429,0.6961524227,")

    def test_artifact_export(self, tmp_path, capsys):
        assert main(["solve", "--n", "6", "--out", str(tmp_path)]) == 0
        assert len(list((tmp_path / "n006").iterdir())) == 4

    def test_svg_flag(self, tmp_path, capsys):
        out_svg = tmp_path / "hexagon.svg"
        assert main(["solve", "--n", "6", "--svg", str(out_svg)]) == 0
        assert out_svg.read_text().startswith("<svg")

    def test_trace_flag(self, capsys):
        assert main(["solve", "--n", "6", "--trace"]) == 0
        assert "k,area,rel_step" in capsys.readouterr().out


class TestSweep:
    def test_two_entry_sweep(self, capsys):
        assert main(["sweep", "--from", "6", "--to", "8"]) == 0
        out = capsys.readouterr().out
        assert "n=6" in out and "n=8" in out

    def test_parallel_jobs(self, capsys):
        assert main(["sweep", "--from", "6", "--to", "8", "--jobs", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("6,") and lines[2].startswith("8,")

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crash is injected by patching the parent before workers fork",
    )
    def test_crashed_worker_fails_only_its_entry(self, monkeypatch, capsys):
        solve = ccp.maximize_area

        def crash_on_8(n, cfg=None, initial=None):
            if n == 8:
                os._exit(1)
            return solve(n, cfg, initial)

        monkeypatch.setattr(ccp, "maximize_area", crash_on_8)
        argv = ["sweep", "--from", "6", "--to", "10", "--jobs", "2", "--format", "csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("6,") and lines[2].startswith("10,")
        assert "n=8 failed: worker process died" in captured.err

    def test_rejects_odd_range(self, capsys):
        assert main(["sweep", "--from", "5", "--to", "9"]) == 2


@pytest.mark.parametrize(
    "status",
    [SolverStatus.ITERATION_LIMIT, SolverStatus.NUMERICAL_FAILURE],
    ids=["iteration_limit", "numerical_failure"],
)
class TestSubproblemFailure:
    """A subproblem solve that ends short of optimality stops the run with
    status subproblem_failure and exit code 1; a sweep still prints every
    entry."""

    @pytest.fixture(autouse=True)
    def failing_solve(self, monkeypatch, status):
        def solve(cone, cfg, warm_start=None):
            return SolverResult(status, np.zeros(cone.dim), 0.0, 1.0, 1.0, 1.0, 3)

        monkeypatch.setattr(ccp, "solve", solve)

    def test_solve_exits_1(self, capsys):
        assert main(["solve", "--n", "6"]) == 1
        assert "status=subproblem_failure" in capsys.readouterr().out

    def test_sweep_prints_both_entries(self, capsys):
        assert main(["sweep", "--from", "6", "--to", "8"]) == 1
        lines = capsys.readouterr().out.splitlines()
        for n in (6, 8):
            assert any(
                line.startswith(f"n={n} ") and "status=subproblem_failure" in line
                for line in lines
            )


class TestVerifyOnce:
    """The CLI verifies each result once and passes the report on; the output
    equals what the building blocks produce from those reports."""

    @pytest.fixture(scope="class")
    def results(self):
        return {n: maximize_area(n) for n in (6, 8)}

    @staticmethod
    def tree(root):
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_one_verification_per_result(self, fmt, results, tmp_path, monkeypatch, capsys):
        ok = [results[6], results[8]]
        reports = [verification.verify_structure(r.polygon) for r in ok]
        expected_dir = tmp_path / "expected"
        for r, rep in zip(ok, reports):
            reporting.export_run(r, expected_dir, rep)
        rows = [reporting.sweep_row(r, rep.passed) for r, rep in zip(ok, reports)]
        if fmt == "csv":
            expected_out = reporting.render_table_csv(rows)
        elif fmt == "text":
            expected_out = reporting.render_table_text(rows) + "".join(
                f"n={r.n} area={r.area:.10f} k={r.iterations} status={r.status.value} "
                f"structure=pass max_defect={rep.max_defect:.2e}\n"
                for r, rep in zip(ok, reports)
            )
        else:
            expected_out = json.dumps(
                [{"n": r.n, "area": r.area, "iterations": r.iterations,
                  "status": r.status.value, "structure_pass": rep.passed,
                  "vertices": [list(map(float, v)) for v in r.polygon.vertices]}
                 for r, rep in zip(ok, reports)],
                indent=2,
            ) + "\n"

        calls = []
        real_verify = verification.verify_structure

        def counting_verify(polygon, *args, **kwargs):
            calls.append(polygon)
            return real_verify(polygon, *args, **kwargs)

        monkeypatch.setattr(cli, "_sweep_entry", lambda item: results[item[0]])
        monkeypatch.setattr(verification, "verify_structure", counting_verify)
        capsys.readouterr()
        out_dir = tmp_path / "out"
        args = ["sweep", "--from", "6", "--to", "8", "--format", fmt, "--out", str(out_dir)]
        assert main(args) == 0
        assert [id(p) for p in calls] == [id(r.polygon) for r in ok]
        assert capsys.readouterr().out == expected_out
        assert self.tree(out_dir) == self.tree(expected_dir)


class TestLogging:
    def test_verbosity_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("OPTIGON_LOG", "debug")
        assert main(["bounds", "--n", "6"]) == 0


class TestVerify:
    def test_pendant_polygon_passes(self, pendant_json, capsys):
        assert main(["verify", "--input", str(pendant_json)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "--input", "/nonexistent/poly.json"]) == 2


class TestRender:
    def test_renders_svg(self, pendant_json, tmp_path):
        out = tmp_path / "out.svg"
        assert main(["render", "--input", str(pendant_json), "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and 'class="chord"' in text


class TestBounds:
    def test_single_n(self, capsys):
        assert main(["bounds", "--n", "6"]) == 0
        out = capsys.readouterr().out
        assert "0.6722882584" in out
        assert "0.6961524227" in out

    def test_range(self, capsys):
        assert main(["bounds", "--n", "6..12"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 1 + 4

    def test_csv_format(self, capsys):
        assert main(["bounds", "--n", "6", "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "6,0.6722882584,0.6961524227"

    def test_bad_range_is_usage_error(self, capsys):
        assert main(["bounds", "--n", "7"]) == 2
        assert main(["bounds", "--n", "12..6"]) == 2


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
