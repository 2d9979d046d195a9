#!/usr/bin/env python3
"""optigon benchmark: time to a verified largest small polygon.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large128 --seed 1 --seconds 52 --trace 0

Workloads (closed loop, one client, one process; BLAS pinned to one thread):

- ``large128``: ``maximize_area(128)`` at defaults. Few outer iterations on
  a cone of ~33k rows, so array work dominates.
- ``sweep``: ``optigon sweep --from 6 --to 16 --jobs 1 --format json --out``
  in-process, then ``optigon verify`` and ``optigon render`` on each exported
  polygon. Many small cones and outer iterations, fixed per-call costs and
  artifact I/O. The sweep's process pool is left out: two workers on a
  two-CPU shared host timed the scheduler more than the program.
- ``mid32``: ``maximize_area(32)`` at defaults. Many outer iterations on a
  mid-size cone, so per-iteration Python overhead dominates. Runnable, but
  not listed in ``BENCHMARK.json``: three workloads leave too little time per
  run to keep the spread of ``wall_s`` within its bound on a noisy host.

The solve path has no randomness: ``--seed`` is recorded and changes no
input, and the instances always run in the same order.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median pass time,
every answer checked), ``setup_s`` (median time for a fresh interpreter to
import optigon with numpy and scipy), ``peak_rss_mb`` (peak resident memory
of the workload process) and ``fail_rate``. ``--trace 1`` prints the per-layer
metrics of a traced pass (see ``tracing.py``); a metric whose hook no longer
exists reads -1.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 1 when any check
fails and 2 when the checkout holds no optigon sources. Each run also writes
its record (metrics, passes, environment) and, when traced, its spans under
``.perfbench_out/`` in the checkout.

``spread.py`` runs every workload on several seeds and prints each metric's
median and quartile spread; ``baseline.json`` condenses its output at the
seed commit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import EXACT_COUNTS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("large128", "sweep", "mid32")
SETUP_SAMPLES = 11
RUN_TIMEOUT_S = 170.0
# a pass's self-time sum must match its measured wall time this closely
SELF_TIME_TOLERANCE = 0.01

SETUP_SNIPPET = (
    "import numpy, scipy, scipy.linalg, scipy.sparse, optigon; print(optigon.__file__)"
)


def child_env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        TMPDIR=str(scratch),
    )
    env.pop("OPTIGON_LOG", None)
    return env


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of fresh interpreters importing optigon."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            env=env, capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        imported = Path(done.stdout.strip() or "/").resolve()
        if done.returncode != 0 or ROOT / "src" not in imported.parents:
            raise RuntimeError(f"fresh interpreter could not import optigon: {done.stderr}")
        if i:  # the first start writes bytecode caches
            samples.append(elapsed)
    return statistics.median(samples)


def run_worker(cmd: list[str], env: dict[str, str], timeout: float) -> tuple[int, str]:
    """Run the workload process; on timeout stop its whole process group."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, stderr = proc.communicate()
        return -1, stderr + f"timed out after {timeout:.0f} s\n"
    return proc.returncode, stderr


def end_to_end(record: dict, setup_s: float) -> dict:
    timed = [p["wall_s"] for p in record["passes"] if not p["traced"]]
    return {
        "wall_s": {"value": statistics.median(timed), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(record: dict, benchmark: dict) -> tuple[dict, list[str]]:
    units = {m["name"]: m["unit"] for m in benchmark["per_layer"]}
    traced = next(p for p in record["passes"] if p["traced"])
    untraced = next(p for p in record["passes"] if not p["traced"])
    values = dict(traced["layers"])
    values["bench.traced_wall_s"] = traced["wall_s"]
    values["bench.untraced_wall_s"] = untraced["wall_s"]
    values["bench.tracing_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    values["bench.span_count"] = traced["span_count"]
    values["bench.self_time_error"] = (
        abs(traced["self_time_sum_s"] - traced["wall_s"]) / traced["wall_s"]
    )
    missing = [name for name in units if values.get(name, -1) == -1]
    metrics = {
        name: {"value": values.get(name, -1), "unit": unit} for name, unit in units.items()
    }
    return metrics, missing


def check_exact_counts(workload: str, metrics: dict, fingerprint: str) -> str:
    """Compare the exact counts with the previous traced run of this code."""
    counts = {name: metrics[name]["value"] for name in EXACT_COUNTS if name in metrics}
    path = OUT_DIR / "counts" / f"{workload}-{fingerprint}.json"
    if path.exists():
        previous = json.loads(path.read_text(encoding="utf-8"))
        differ = {
            k: (previous[k], v) for k, v in counts.items()
            if k in previous and v != -1 and previous[k] != v
        }
        if differ:
            return f"counts differ from the previous traced run: {differ}"
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, indent=1), encoding="utf-8")
    return ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "optigon" / "__init__.py").is_file() or not (
        ROOT / "tests" / "reference_values.py"
    ).is_file():
        print(f"error: {ROOT} holds no optigon sources and reference values",
              file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    OUT_DIR.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}"
    scratch = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT_DIR))
    env = child_env(scratch)
    started = time.perf_counter()
    try:
        setup_s = measure_setup(env) if not args.trace else None
        code, stderr = run_worker(
            [sys.executable, str(BENCH_DIR / "workload.py"),
             "--workload", args.workload, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--scratch", str(scratch / "work"),
             "--result", str(scratch / "result.json"),
             "--spans", str(OUT_DIR / f"{tag}-spans.jsonl")],
            env, RUN_TIMEOUT_S - (time.perf_counter() - started),
        )
        if code != 0:
            sys.stderr.write(stderr)
            print(f"error: workload process exited {code}", file=sys.stderr)
            return 1
        record = json.loads((scratch / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    instances = [i for p in record["passes"] for i in p["instances"]]
    failures = [f"pass {p['index']} {i['name']}: {i['reason']}"
                for p in record["passes"] for i in p["instances"] if not i["ok"]]
    attempted, failed = len(instances), len(failures)
    fingerprint = source_fingerprint()
    record["environment"].update(git_commit=git_commit(), source_sha256=fingerprint,
                                 seed=args.seed, seconds=args.seconds)

    if args.trace:
        metrics, missing = per_layer(record, benchmark)
        traced = next(p for p in record["passes"] if p["traced"])
        error = metrics["bench.self_time_error"]["value"]
        if error > SELF_TIME_TOLERANCE:
            failures.append(f"span self times cover {traced['self_time_sum_s']:.4f} s "
                            f"of a {traced['wall_s']:.4f} s pass")
        failures += filter(None, [check_exact_counts(args.workload, metrics, fingerprint)])
        if missing:
            print(f"missing (hook renamed or removed): {', '.join(missing)}")
    else:
        metrics = end_to_end(record, setup_s)

    correct = not failures
    record.update(metrics=metrics, failures=failures, attempted=attempted, failed=failed)
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(record['passes'])} commit={record['environment']['git_commit']} "
          f"source={fingerprint}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for failure in failures:
        print(f"FAILED {failure}")
    print(f"fail_rate = {failed / attempted:.6g} ({failed}/{attempted} instances)")
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
