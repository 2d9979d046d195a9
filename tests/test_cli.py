"""Command-line interface: subcommands, formats, exit codes."""

import concurrent.futures
import dataclasses
import json
import multiprocessing
import os

import numpy as np
import pytest

from optigon import ccp, cli, reporting, verification
from optigon.ccp import maximize_area
from optigon.cli import main
from optigon.conic_solver import SolverResult, SolverStatus
from optigon.errors import AscentViolation
from optigon.formulation import ConeTemplate
from optigon.geometry import (
    Polygon, build_pendant_polygon, pendant_area, polygon_to_json, upper_bound,
)
from optigon.verification import unit_chord_pairs, verify_structure

from shapes import build_regular_polygon


@pytest.fixture()
def pendant_json(tmp_path):
    path = tmp_path / "pendant6.json"
    path.write_text(polygon_to_json(build_pendant_polygon(6)), encoding="utf-8")
    return path


@pytest.fixture()
def wide_json(tmp_path):
    # the pendant hexagon with v_1 moved outward by 1e-3: diameter 1.001
    v = build_pendant_polygon(6).vertices.copy()
    v[1, 0] += 1e-3
    path = tmp_path / "wide6.json"
    path.write_text(polygon_to_json(Polygon(v)), encoding="utf-8")
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
        [drawing] = (tmp_path / "n006").glob("n006-drawing-*.svg")
        assert drawing.read_text().startswith("<svg")
        [trace] = (tmp_path / "n006").glob("n006-trace-*.csv")
        assert trace.read_text().startswith("k,area,rel_step")

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.write_text("")
        assert main(["solve", "--n", "6", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: failed to write run artifacts under {out / 'n006'}: ")

    def test_nonfinite_eps_is_usage_error(self, capsys):
        assert main(["solve", "--n", "6", "--eps", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: epsilon must be finite")

    def test_eps_whose_tolerance_underflows_is_usage_error(self, capsys):
        # 5e-324 / 100 rounds to a solver tolerance of 0
        assert main(["solve", "--n", "6", "--eps", "5e-324"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: epsilon must be large enough that epsilon / 100 is positive, got 5e-324\n"
        )

    @pytest.mark.parametrize("eps", ["1e-7", "1e-8"])
    def test_small_eps_tightens_the_solver(self, eps, capsys):
        # the solver tolerance is min(1e-9, eps / 100), within eps / 100
        assert main(["solve", "--n", "6", "--eps", eps]) == 0
        assert "status=converged structure=pass" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [["solve", "--n", "6"], ["sweep", "--from", "6", "--to", "8"]])
    def test_default_flags_are_the_default_config(self, argv):
        args = cli._build_parser().parse_args(argv)
        assert args.eps == ccp.EPSILON


class TestSweep:
    @pytest.mark.parametrize("eps, reason", [
        ("inf", "finite and positive, got inf"),
        ("0", "finite and positive, got 0.0"),
        ("5e-324", "large enough that epsilon / 100 is positive, got 5e-324"),
    ])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_eps_is_one_usage_error(self, monkeypatch, capsys, eps, reason, jobs):
        # checked once, before any run or pool starts
        monkeypatch.setattr(cli, "run_sweep", None)
        monkeypatch.setattr(cli, "_pool_sweep", None)
        assert main(["sweep", "--from", "6", "--to", "8", "--eps", eps, "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: epsilon must be {reason}\n"

    def test_two_entry_sweep(self, capsys):
        assert main(["sweep", "--from", "6", "--to", "8"]) == 0
        out = capsys.readouterr().out
        assert "n=6" in out and "n=8" in out

    def test_parallel_jobs(self, capsys):
        assert main(["sweep", "--from", "6", "--to", "8", "--jobs", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("6,") and lines[2].startswith("8,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pool_writes_what_one_process_writes(self, fmt, tmp_path, capsys):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            argv = ["sweep", "--from", "6", "--to", "10", "--jobs", jobs,
                    "--format", fmt, "--out", str(out)]
            assert main(argv) == 0
            tree = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
                    if p.is_file()}
            outputs.append((capsys.readouterr().out, tree))
        assert len(outputs[0][1]) == 3 * 4
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the crash is injected by patching the parent before workers fork",
    )
    def test_crashed_worker_fails_only_its_entry(self, monkeypatch, capsys):
        solve = ccp.maximize_area

        def crash_on_8(n, epsilon=ccp.EPSILON, initial=None):
            if n == 8:
                os._exit(1)
            return solve(n, epsilon, initial)

        monkeypatch.setattr(ccp, "maximize_area", crash_on_8)
        argv = ["sweep", "--from", "6", "--to", "10", "--jobs", "2", "--format", "csv"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("6,") and lines[2].startswith("10,")
        assert "n=8 failed: worker process died" in captured.err

    @pytest.mark.parametrize("stop, jobs, workers", [(8, 16, 2), (10, 2, 2)])
    def test_pool_has_no_more_workers_than_entries(self, stop, jobs, workers, monkeypatch, capsys):
        # the executor runs each task inline and records its size: no process starts
        sizes = []

        class InlineExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        ns = range(6, stop + 1, 2)
        results = {n: maximize_area(n) for n in ns}
        monkeypatch.setattr("optigon.cli.concurrent.futures.ProcessPoolExecutor", InlineExecutor)
        monkeypatch.setattr(cli, "run_sweep", lambda ns, epsilon: [results[n] for n in ns])
        assert main(["sweep", "--from", "6", "--to", str(stop), "--jobs", str(jobs)]) == 0
        assert sizes == [workers]
        lines = capsys.readouterr().out.splitlines()
        for n in ns:
            assert any(line.startswith(f"n={n} ") for line in lines)

    def test_rejects_odd_range(self, capsys):
        assert main(["sweep", "--from", "5", "--to", "9"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--from", "16", "--to", "6"], ["--step", "-2"], ["--step", "0"], ["--jobs", "0"],
        ["--step", "3"]])
    def test_rejects_empty_range_and_nonpositive_counts(self, flags, capsys):
        assert main(["sweep", "--from", "6", "--to", "16", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err


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
        def solve(cone, start, tol_solver):
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


def test_sweep_entry_that_raised_has_status_failed(monkeypatch, capsys):
    # every subproblem of the n = 8 run succeeds; the run itself raises
    solve = ccp.maximize_area

    def fail_8(n, epsilon=ccp.EPSILON, initial=None):
        if n == 8:
            raise AscentViolation("ascent violated", 1, np.zeros(20))
        return solve(n, epsilon, initial)

    monkeypatch.setattr(ccp, "maximize_area", fail_8)
    assert main(["sweep", "--from", "6", "--to", "8", "--format", "json"]) == 1
    entries = {e["n"]: e for e in json.loads(capsys.readouterr().out)}
    assert entries[6]["status"] == "converged"
    assert entries[8] == {"n": 8, "status": "failed", "message": "ascent violated"}


class TestVerificationFailure:
    """A reported polygon that fails structure verification makes the exit
    code 1, for solve and for a sweep where only one entry fails."""

    # a solver tolerance of 1e-4 leaves the unit chords too inexact to pass
    LOOSE_TOL = 1e-4

    def test_solve_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(ccp, "TOL_SOLVER", self.LOOSE_TOL)
        assert main(["solve", "--n", "6", "--eps", "0.05"]) == 1
        assert "structure=FAIL" in capsys.readouterr().out

    def test_sweep_exits_1_when_one_entry_fails(self, monkeypatch, capsys):
        results = {6: maximize_area(6)}
        monkeypatch.setattr(ccp, "TOL_SOLVER", self.LOOSE_TOL)
        results[8] = maximize_area(8, 0.05)
        monkeypatch.setattr(cli, "run_sweep", lambda ns, epsilon: [results[n] for n in ns])
        assert main(["sweep", "--from", "6", "--to", "8"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("n=6 ") and "structure=pass" in line for line in lines)
        assert any(line.startswith("n=8 ") and "structure=FAIL" in line for line in lines)

    def test_sweep_keeps_every_entry_when_one_polygon_is_not_small(self, monkeypatch, capsys):
        solve = ccp.maximize_area

        def widen_8(n, epsilon=ccp.EPSILON, initial=None):
            result = solve(n, epsilon, initial)
            if n != 8:
                return result
            v = result.polygon.vertices.copy()
            v[1] *= 1.001
            return dataclasses.replace(result, polygon=Polygon(v))

        monkeypatch.setattr(ccp, "maximize_area", widen_8)
        assert main(["sweep", "--from", "6", "--to", "10"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [line.split("|")[0].strip() for line in lines[1:4]] == ["6", "8", "10"]
        for n, verdict in ((6, "pass"), (8, "FAIL"), (10, "pass")):
            assert any(
                line.startswith(f"n={n} ") and f"structure={verdict}" in line for line in lines
            )
        assert captured.err == ""


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
        if fmt == "csv":
            expected_out = reporting.render_table_csv(ok)
        elif fmt == "text":
            expected_out = reporting.render_table_text(ok) + "".join(
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

        monkeypatch.setattr(cli, "run_sweep", lambda ns, epsilon: [results[n] for n in ns])
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

    @pytest.mark.parametrize("value", ["basic_format", "_styles"])
    def test_name_that_is_not_a_level_falls_back(self, value, capsys, monkeypatch):
        # logging.BASIC_FORMAT is a string and logging._STYLES a dict
        monkeypatch.setenv("OPTIGON_LOG", value)
        calls = []
        monkeypatch.setattr(cli.logging, "basicConfig", lambda **kw: calls.append(kw))
        assert main(["bounds", "--n", "6"]) == 0
        assert [kw["level"] for kw in calls] == [cli.logging.WARNING]


class TestVerify:
    def test_pendant_polygon_passes(self, pendant_json, capsys):
        assert main(["verify", "--input", str(pendant_json)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True

    def test_polygon_that_is_not_small_fails(self, wide_json, capsys):
        assert main(["verify", "--input", str(wide_json)]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["passed"] is False
        assert (payload["has_pendant_cycle"], payload["cycle_length"]) == (False, 0)
        assert payload["pendant_vertex"] is None
        assert captured.err == ""

    def test_missing_file_is_usage_error(self, capsys):
        assert main(["verify", "--input", "/nonexistent/poly.json"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tolerance_is_usage_error(self, tol, pendant_json, capsys):
        assert main(["verify", "--input", str(pendant_json), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: tol must be finite and positive")


class TestRender:
    def test_renders_svg(self, pendant_json, tmp_path):
        out = tmp_path / "out.svg"
        assert main(["render", "--input", str(pendant_json), "--output", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and 'class="chord"' in text

    def test_renders_polygon_that_is_not_small(self, wide_json, tmp_path, capsys):
        out = tmp_path / "out.svg"
        assert main(["render", "--input", str(wide_json), "--output", str(out)]) == 0
        assert out.read_text().startswith("<svg")
        assert capsys.readouterr().err == ""


class TestMalformedInput:
    """A polygon file that parses to no polygon is a usage error: exit 2,
    one error line, no output."""

    HEXAGON = "[[0, 0], [0.5, 0.25], [0.5, 0.75], [0, 1], [-0.5, 0.75], [-0.5, 0.25]]"
    CASES = {
        "nan": '{"n": 3, "vertices": [[0, 0], [1, NaN], [0, 1]]}',
        "count_mismatch": '{"n": 4, "vertices": [[0, 0], [1, 0], [0, 1]]}',
        "non_list_vertices": '{"n": 3, "vertices": 5}',
        "ragged_rows": '{"n": 3, "vertices": [[0, 0], [1], [0, 1]]}',
        "non_numeric": '{"n": 3, "vertices": [[0, 0], ["a", 0], [0, 1]]}',
        "object_entry": '{"n": 3, "vertices": [[0, 0], [{}, 0], [0, 1]]}',
        "truncated": '{"n": 3, "vertices": [[0, 0], [1',
        "fractional_n": '{"n": 6.5, "vertices": ' + HEXAGON + "}",
        "string_n": '{"n": "6", "vertices": ' + HEXAGON + "}",
    }

    @pytest.mark.parametrize("command", ["verify", "render"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_is_usage_error(self, command, case, tmp_path, capsys):
        path = tmp_path / "poly.json"
        path.write_text(self.CASES[case])
        svg = tmp_path / "out.svg"
        args = [command, "--input", str(path)]
        if command == "render":
            args += ["--output", str(svg)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert not svg.exists()


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
        for text in ("7", "12..6", "6..", "abc", "6..x"):
            assert main(["bounds", "--n", text]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: expected an even n >= 6 or a range like 6..128, got {text!r}\n"
            )


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize("flag", [["--svg", "x.svg"], ["--trace"], ["--solver-tol", "1e-7"]])
    def test_removed_output_flags(self, flag, tmp_path, monkeypatch, capsys):
        # --out DIR writes the drawing and the trace CSV of every run; --eps
        # sets the solver tolerance
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--from", "6", "--to", "8", *flag]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 5, 7])
def test_only_even_n_from_six_is_accepted(n, tmp_path, capsys):
    # one guard, geometry.require_even_ge6, refuses the n outside the paper's
    # problem at every entry; drawing a polygon takes any n
    polygon = build_regular_polygon(n)
    for call in (lambda: ConeTemplate(n), lambda: maximize_area(n),
                 lambda: maximize_area(n, initial=polygon), lambda: verify_structure(polygon)):
        with pytest.raises(ValueError, match="n must be even and >= 6"):
            call()
    path = tmp_path / "poly.json"
    path.write_text(polygon_to_json(polygon), encoding="utf-8")
    assert main(["solve", "--n", str(n)]) == 2
    assert main(["verify", "--input", str(path)]) == 2
    assert main(["render", "--input", str(path), "--output", str(tmp_path / "out.svg")]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: n must be even and >= 6, got {n}\n" * 2


@pytest.mark.parametrize("n", [8.0, np.float64(8.0)], ids=["float", "numpy_float"])
def test_only_integral_n_is_accepted(n):
    for call in (lambda: ConeTemplate(n), lambda: maximize_area(n),
                 lambda: build_pendant_polygon(n), lambda: unit_chord_pairs(n),
                 lambda: pendant_area(n), lambda: upper_bound(n)):
        with pytest.raises(ValueError, match=r"n must be an integer, got .*8\.0"):
            call()
    with pytest.raises(ValueError, match=r"^n must be an integer, got 8\.5$"):
        upper_bound(8.5)
    # numpy integers are integers
    assert pendant_area(np.int64(8)) == pendant_area(8)
    assert upper_bound(np.int64(8)) == upper_bound(8)
    assert unit_chord_pairs(np.int64(8)) == unit_chord_pairs(8)
