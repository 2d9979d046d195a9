"""Command-line entry point: solve, sweep, verify, render, bounds."""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import logging
import os
import sys
from pathlib import Path

from . import reporting, verification
from .ccp import CcpConfig, CcpResult, CcpStatus, failed_result, maximize_area, run_sweep
from .conic_solver import SolverConfig
from .errors import OptigonError
from .geometry import load_polygon, pendant_area, upper_bound

USAGE_ERROR = 2
SOLVER_ERROR = 1


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except OptigonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return SOLVER_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _configure_logging() -> None:
    level_name = os.environ.get("OPTIGON_LOG", "warning").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(name)s %(levelname)s: %(message)s"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optigon",
        description="Largest-area polygons of unit diameter via sequential "
        "convex optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="solve one n and print the result")
    solve_p.add_argument("--n", type=int, required=True)
    _add_solve_flags(solve_p)
    solve_p.set_defaults(func=_cmd_solve)

    sweep_p = sub.add_parser("sweep", help="solve a range of even n")
    sweep_p.add_argument("--from", dest="start", type=int, required=True)
    sweep_p.add_argument("--to", dest="stop", type=int, required=True)
    sweep_p.add_argument("--step", type=int, default=2)
    sweep_p.add_argument("--jobs", type=int, default=1)
    _add_solve_flags(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    verify_p = sub.add_parser("verify", help="structural checks on a polygon JSON file")
    verify_p.add_argument("--input", required=True)
    verify_p.add_argument("--tol", type=float, default=verification.TOL_FINAL)
    verify_p.set_defaults(func=_cmd_verify)

    render_p = sub.add_parser("render", help="render a polygon JSON file to SVG")
    render_p.add_argument("--input", required=True)
    render_p.add_argument("--output", required=True)
    render_p.add_argument("--labels", action="store_true")
    render_p.set_defaults(func=_cmd_render)

    bounds_p = sub.add_parser("bounds", help="print the closed-form area columns")
    bounds_p.add_argument("--n", required=True, help="single even n or a range like 6..128")
    bounds_p.add_argument("--format", choices=("text", "csv"), default="text")
    bounds_p.set_defaults(func=_cmd_bounds)

    return parser


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=float, default=1e-5, help="relative-step stop threshold")
    p.add_argument("--solver-tol", type=float, default=1e-9)
    p.add_argument("--out", type=Path, help="directory for run artifacts")
    p.add_argument("--trace", action="store_true", help="print the iterate trace")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--svg", type=Path, help="write the final polygon drawing here")


def _config_from(args) -> CcpConfig:
    return CcpConfig(
        epsilon=args.eps,
        solver=SolverConfig(tol_solver=args.solver_tol),
    )


def _require_headline_n(n: int) -> None:
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")


def _cmd_solve(args) -> int:
    _require_headline_n(args.n)
    cfg = _config_from(args)
    result = maximize_area(args.n, cfg)
    return _emit_results([result], args)


def _cmd_sweep(args) -> int:
    ns = list(range(args.start, args.stop + 1, args.step))
    for n in ns:
        _require_headline_n(n)
    cfg = _config_from(args)
    if args.jobs > 1:
        results = _pool_sweep(ns, cfg, args.jobs)
    else:
        results = [_sweep_entry((n, cfg)) for n in ns]
    return _emit_results(results, args)


def _pool_sweep(ns: list[int], cfg: CcpConfig, jobs: int) -> list[CcpResult]:
    """Run each n in a process pool. A worker that dies breaks the pool and
    every entry still in it; those entries run again, each in a pool of its
    own, so only the entry whose worker dies again is lost."""
    results: dict[int, CcpResult] = {}
    for n in _run_pool(ns, cfg, jobs, results):
        if _run_pool([n], cfg, 1, results):
            results[n] = failed_result(n, "worker process died")
    return [results[n] for n in ns]


def _run_pool(ns, cfg, jobs, results) -> list[int]:
    """Fill results for the entries that finish; return those the pool lost."""
    broken = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {n: pool.submit(_sweep_entry, (n, cfg)) for n in ns}
        for n, future in futures.items():
            try:
                results[n] = future.result()
            except concurrent.futures.BrokenExecutor:
                broken.append(n)
    return broken


def _sweep_entry(item) -> CcpResult:
    n, cfg = item
    return run_sweep([n], cfg)[0]


def _emit_results(results: list[CcpResult], args) -> int:
    ok = [r for r in results if r.polygon is not None]
    failed = [r for r in results if r.polygon is None]
    reports = [verification.verify_structure(r.polygon) for r in ok]
    rows = [reporting.sweep_row(r, report.passed) for r, report in zip(ok, reports)]

    if args.format == "json":
        payload = []
        for r, report in zip(ok, reports):
            payload.append(
                {
                    "n": r.n,
                    "area": r.area,
                    "iterations": r.iterations,
                    "status": r.status.value,
                    "structure_pass": report.passed,
                    "vertices": [list(map(float, v)) for v in r.polygon.vertices],
                }
            )
        for r in failed:
            payload.append({"n": r.n, "status": r.status.value, "message": r.message})
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        if rows:
            print(reporting.render_table_csv(rows), end="")
    else:
        if rows:
            print(reporting.render_table_text(rows), end="")
        for r, report in zip(ok, reports):
            print(
                f"n={r.n} area={r.area:.10f} k={r.iterations} status={r.status.value} "
                f"structure={'pass' if report.passed else 'FAIL'} "
                f"max_defect={report.max_defect:.2e}"
            )
        if args.trace and len(ok) == 1:
            print(reporting.trace_csv(ok[0]), end="")

    for r in failed:
        print(f"n={r.n} failed: {r.message}", file=sys.stderr)

    for r, report in zip(ok, reports):
        if args.out is not None:
            for path in reporting.export_run(r, args.out, report):
                print(f"wrote {path}", file=sys.stderr)
        if args.svg is not None and len(ok) == 1:
            args.svg.write_text(reporting.render_svg(r.polygon), encoding="utf-8")
            print(f"wrote {args.svg}", file=sys.stderr)

    if failed or any(r.status is not CcpStatus.CONVERGED for r in ok):
        return SOLVER_ERROR
    return 0


def _cmd_verify(args) -> int:
    polygon = load_polygon(args.input)
    report = verification.verify_structure(polygon, tol=args.tol)
    print(verification.report_to_json(report), end="")
    return 0 if report.passed else SOLVER_ERROR


def _cmd_render(args) -> int:
    polygon = load_polygon(args.input)
    Path(args.output).write_text(
        reporting.render_svg(polygon, vertex_labels=args.labels), encoding="utf-8"
    )
    return 0


def _cmd_bounds(args) -> int:
    ns = _parse_range(args.n)
    header = "n,pendant_area,upper_bound" if args.format == "csv" else (
        "   n | pendant_area | upper_bound"
    )
    print(header)
    for n in ns:
        if args.format == "csv":
            print(f"{n},{pendant_area(n):.10f},{upper_bound(n):.10f}")
        else:
            print(f"{n:>4d} | {pendant_area(n):.10f} | {upper_bound(n):.10f}")
    return 0


def _parse_range(text: str) -> list[int]:
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(text)
    if lo % 2 != 0 or lo < 6 or hi < lo:
        raise ValueError(f"expected an even n >= 6 or a range like 6..128, got {text!r}")
    return list(range(lo, hi + 1, 2))


if __name__ == "__main__":
    sys.exit(main())
