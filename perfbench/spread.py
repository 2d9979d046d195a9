#!/usr/bin/env python3
"""Run every workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py                      # 10 seeds, then 2 traced runs
    python3 perfbench/spread.py --workloads sweep --seeds 1 2 3 4 5 --trace-seeds

For every end-to-end metric this prints the median of the untraced runs and
the distance between the first and third quartile (``statistics.quantiles(
values, n=4)``) as a share of the median, next to a third of the metric's
bound in ``BENCHMARK.json``, plus the fail rate over all runs. The traced
runs give the per-layer medians; each traced run after the first also
checks that the exact counts repeat. ``--out FILE`` writes the summary (the
committed ``baseline.json`` condenses one). Exits 1 if any run failed a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    env = [line for line in lines if line.startswith("environment: ")]
    result.update(exit_code=done.returncode, run_s=time.perf_counter() - start, seed=seed,
                  environment=json.loads(env[0].split(": ", 1)[1]) if env else {})
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
    return result


def quartiles(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def summarize(runs: list[dict]) -> dict:
    names = sorted({name for r in runs for name in r["metrics"]})
    return {name: quartiles([r["metrics"][name]["value"] for r in runs
                             if name in r["metrics"]]) for name in names}


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", nargs="*", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[1, 2])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    report = {"run_seconds": seconds, "environment": {}, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in args.seeds]
        traced = [run_once(workload, seed, seconds, 1) for seed in args.trace_seeds]
        every = runs + traced
        ok &= all(r["exit_code"] == 0 and r["correct"] for r in every)
        attempted = sum(r["attempted"] for r in every)
        failed = sum(r["failed"] for r in every)
        report["environment"] = report["environment"] or every[0]["environment"]
        entry = report["workloads"][workload] = {
            "fail_rate": failed / attempted if attempted else 1.0,
            "end_to_end": summarize(runs) if runs else {},
            "per_layer": summarize(traced) if traced else {},
            "run_s": [round(r["run_s"], 1) for r in every],
        }
        print(f"{workload}: {len(runs)} runs + {len(traced)} traced, longest "
              f"{max(entry['run_s'])} s, fail_rate {entry['fail_rate']:.6g} "
              f"({failed}/{attempted})")
        for name, s in entry["end_to_end"].items():
            unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
            spread = f"spread {s['spread']:.4f}" if "spread" in s else ""
            print(f"  {name:>12} median {s['median']:.6g} {unit:<3} {spread}  "
                  f"bound/3 {bounds[name] / 3:.4f}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
