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
from .ccp import (
    EPSILON, CcpResult, CcpStatus, failed_result, maximize_area, run_sweep, solver_tolerance,
)
from .errors import InvalidPolygon, OptigonError
from .geometry import load_polygon, pendant_area, require_even_ge6, upper_bound

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
        return USAGE_ERROR if isinstance(exc, InvalidPolygon) else SOLVER_ERROR
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def _configure_logging() -> None:
    # logging also holds names that are not levels, such as BASIC_FORMAT;
    # those, like unknown names, fall back to WARNING
    level = getattr(logging, os.environ.get("OPTIGON_LOG", "warning").upper(), None)
    if not isinstance(level, int):
        level = logging.WARNING
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
    p.add_argument("--eps", type=float, default=EPSILON, help="relative-step stop threshold")
    p.add_argument("--out", type=Path, help="directory for run artifacts")
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")


def _cmd_solve(args) -> int:
    result = maximize_area(args.n, args.eps)
    return _emit_results([result], args)


def _cmd_sweep(args) -> int:
    if args.step < 1 or args.jobs < 1:
        raise ValueError(f"--step and --jobs must be >= 1, got {args.step} and {args.jobs}")
    if args.step % 2:
        raise ValueError(f"--step must be even, got {args.step}")
    ns = list(range(args.start, args.stop + 1, args.step))
    if not ns:
        raise ValueError(f"empty range: --from {args.start} --to {args.stop}")
    for n in ns:
        require_even_ge6(n)
    solver_tolerance(args.eps)  # refuse a bad --eps before a pool starts
    if args.jobs > 1:
        results = _pool_sweep(ns, args.eps, args.jobs)
    else:
        results = run_sweep(ns, args.eps)
    return _emit_results(results, args)


def _pool_sweep(ns: list[int], epsilon: float, jobs: int) -> list[CcpResult]:
    """Run each n in a process pool. A worker that dies breaks the pool and
    every entry still in it; those entries run again, each in a pool of its
    own, so only the entry whose worker dies again is lost."""
    results: dict[int, CcpResult] = {}
    for n in _run_pool(ns, epsilon, jobs, results):
        if _run_pool([n], epsilon, 1, results):
            results[n] = failed_result(n, "worker process died")
    return [results[n] for n in ns]


def _run_pool(ns, epsilon, jobs, results) -> list[int]:
    """Fill results for the entries that finish; return those the pool lost.
    The pool forks all its workers at once, so it gets no more workers than
    entries."""
    broken = []
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(jobs, len(ns))) as pool:
        futures = {n: pool.submit(run_sweep, [n], epsilon) for n in ns}
        for n, future in futures.items():
            try:
                results[n] = future.result()[0]
            except concurrent.futures.BrokenExecutor:
                broken.append(n)
    return broken


def _emit_results(results: list[CcpResult], args) -> int:
    ok = [r for r in results if r.polygon is not None]
    failed = [r for r in results if r.polygon is None]
    reports = [verification.verify_structure(r.polygon) for r in ok]

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
                    "vertices": r.polygon.vertices.tolist(),
                }
            )
        for r in failed:
            payload.append({"n": r.n, "status": r.status.value, "message": r.message})
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        if ok:
            print(reporting.render_table_csv(ok), end="")
    else:
        if ok:
            print(reporting.render_table_text(ok), end="")
        for r, report in zip(ok, reports):
            print(
                f"n={r.n} area={r.area:.10f} k={r.iterations} status={r.status.value} "
                f"structure={'pass' if report.passed else 'FAIL'} "
                f"max_defect={report.max_defect:.2e}"
            )

    for r in failed:
        print(f"n={r.n} failed: {r.message}", file=sys.stderr)

    if args.out is not None:
        for r, report in zip(ok, reports):
            for path in reporting.export_run(r, args.out, report):
                print(f"wrote {path}", file=sys.stderr)

    if failed or any(r.status is not CcpStatus.CONVERGED for r in ok):
        return SOLVER_ERROR
    if not all(report.passed for report in reports):
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
    usage = ValueError(f"expected an even n >= 6 or a range like 6..128, got {text!r}")
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
        require_even_ge6(lo)
    except ValueError:
        raise usage from None
    if hi < lo:
        raise usage
    return list(range(lo, hi + 1, 2))


if __name__ == "__main__":
    sys.exit(main())
