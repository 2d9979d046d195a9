"""One benchmark run of one workload, in its own process.

``run.py`` starts this file with PYTHONPATH pointing at the checkout's
``src`` and BLAS pinned to one thread, so that the process's peak memory is
the workload's. It writes one JSON record to ``--result``. Everything runs in
this one process: the sweep is run with ``--jobs 1``.

Each pass runs every instance of the workload back to back (a closed loop
with one client) and checks every answer. An instance fails if it raises,
does not converge, misses the published area by more than the acceptance
tolerance, or fails ``verify_structure`` at ``TOL_FINAL``.

Untraced runs repeat passes while another pass, as long as the longest so
far, would end within ``--seconds``. Traced runs make one untraced pass, then one traced pass; the
difference between the two is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import optigon
import tracing
from optigon import ccp, cli, verification
from optigon.geometry import load_polygon

ROOT = Path(__file__).resolve().parent.parent

# captured before the tracer wraps anything: the benchmark's own checks
# must not show up as program spans
VERIFY = verification.verify_structure
TOL_FINAL = verification.TOL_FINAL

SWEEP_NS = range(6, 17, 2)


def _load_reference():
    path = ROOT / "tests" / "reference_values.py"
    spec = importlib.util.spec_from_file_location("perfbench_reference_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PUBLISHED


PUBLISHED = _load_reference()


def area_tolerance(n: int) -> float:
    return 1e-7 if n <= 12 else 1e-6


def check_polygon(n: int, area: float, polygon) -> str:
    """Empty string when the answer is right, otherwise the reason."""
    if abs(area - PUBLISHED[n].area) > area_tolerance(n):
        return f"area {area!r} differs from published {PUBLISHED[n].area!r}"
    if not VERIFY(polygon, tol=TOL_FINAL).passed:
        return "verify_structure failed at TOL_FINAL"
    return ""


class Pass:
    """State of one pass: instance outcomes and what the workload measured."""

    def __init__(self, tracer: tracing.Tracer | None, scratch: Path):
        self.tracer = tracer
        self.scratch = scratch
        self.instances: list[dict] = []
        # measured by the sweep only; reads 0 on workloads without the CLI
        self.extra: dict[str, float] = {"reporting.bytes_written": 0}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def record(self, name: str, reason: str) -> None:
        self.instances.append({"name": name, "ok": not reason, "reason": reason})


def solve_one(p: Pass, n: int) -> None:
    try:
        result = ccp.maximize_area(n)
    except Exception as exc:  # noqa: BLE001 - a raising instance is a failure
        p.record(f"n={n}", f"raised {type(exc).__name__}: {exc}")
        return
    with p.span("bench.check"):
        if not result.converged:
            reason = f"status {result.status.value}"
        else:
            reason = check_polygon(n, result.area, result.polygon)
    p.record(f"n={n}", reason)


def run_mid32(p: Pass) -> None:
    solve_one(p, 32)


def run_large128(p: Pass) -> None:
    solve_one(p, 128)


def _cli(args: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue()


def run_sweep(p: Pass) -> None:
    out_dir = p.scratch / "sweep"
    args = ["sweep", "--from", str(SWEEP_NS[0]), "--to", str(SWEEP_NS[-1]),
            "--jobs", "1", "--format", "json", "--out", str(out_dir)]
    with p.span("cli.sweep"):
        code, stdout = _cli(args)

    try:
        rows = {row["n"]: row for row in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        rows = {}
        print(f"sweep printed no result table: {exc}", file=sys.stderr)
    for n in SWEEP_NS:
        p.record(f"n={n}", _check_sweep_entry(p, n, rows.get(n), code, out_dir))
    p.extra["reporting.bytes_written"] = sum(
        f.stat().st_size for f in out_dir.rglob("*") if f.is_file()
    )


def _check_sweep_entry(p: Pass, n: int, row, code: int, out_dir: Path) -> str:
    if code != 0:
        return f"sweep exited {code}"
    if row is None:
        return "missing from the sweep output"
    if row.get("status") != "converged":
        return f"status {row.get('status')}"
    if row.get("structure_pass") is not True:
        return "sweep reported a structure failure"
    exported = sorted((out_dir / f"n{n:03d}").glob(f"n{n:03d}-polygon-*.json"))
    if len(exported) != 1:
        return f"expected one exported polygon, found {len(exported)}"
    polygon_path = exported[0]

    with p.span("cli.verify"):
        code, report = _cli(["verify", "--input", str(polygon_path)])
    if code != 0 or json.loads(report).get("passed") is not True:
        return f"optigon verify exited {code}"
    svg_path = out_dir / f"n{n:03d}.svg"
    with p.span("cli.render"):
        code, _ = _cli(["render", "--input", str(polygon_path), "--output", str(svg_path)])
    if code != 0 or not svg_path.read_text(encoding="utf-8").startswith("<svg"):
        return f"optigon render exited {code}"

    with p.span("bench.check"):
        return check_polygon(n, float(row["area"]), load_polygon(polygon_path))


WORKLOADS = {"mid32": run_mid32, "large128": run_large128, "sweep": run_sweep}


def run_pass(workload: str, index: int, scratch_root: Path,
             tracer: tracing.Tracer | None) -> dict:
    scratch = scratch_root / f"pass{index}"
    scratch.mkdir(parents=True)
    p = Pass(tracer, scratch)
    if tracer is not None:
        tracer.instance = index
    cpu_start = time.process_time()
    start = time.perf_counter()
    with p.span("bench.pass"):
        WORKLOADS[workload](p)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    record = {"index": index, "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
              "instances": p.instances, "extra": p.extra}
    if tracer is not None:
        tracer.instance = None
        spans = tracer.spans
        record["layers"] = tracing.layer_metrics(spans, tracer.missing)
        record["layers"].update(p.extra)
        record["span_count"] = len(spans)
        record["self_time_sum_s"] = sum(tracing.self_times(spans)) / 1e9
    shutil.rmtree(scratch)
    return record


def blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS reports, keyed by library file."""
    import ctypes
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    found = {}
    for lib_path in sorted(site.glob("*.libs/libscipy_openblas*.so")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[lib_path.name] = int(fn())
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    def blas_version(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas_version(numpy.show_config),
        "scipy_openblas": blas_version(scipy.show_config),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "optigon": optigon.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    src = Path(optigon.__file__).resolve()
    if ROOT / "src" not in src.parents:
        print(f"optigon imported from {src}, not from this checkout", file=sys.stderr)
        return 3

    passes = []
    run_start = time.perf_counter()
    if args.trace:
        passes.append(run_pass(args.workload, 0, args.scratch, None))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.append(run_pass(args.workload, 1, args.scratch, tracer))
        finally:
            tracer.uninstall()
        tracer.write(args.spans)
        missing = tracer.missing
    else:
        missing = []
        while True:
            passes.append(run_pass(args.workload, len(passes), args.scratch, None))
            elapsed = time.perf_counter() - run_start
            if elapsed + max(p["wall_s"] for p in passes) > args.seconds:
                break

    # ru_maxrss is in KiB on Linux
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "workload": args.workload,
        "passes": passes,
        "peak_rss_mb": peak_kib / 1024.0,
        "missing_hooks": missing,
        "environment": environment(),
    }
    args.result.write_text(json.dumps(record, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
