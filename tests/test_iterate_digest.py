"""scripts/iterate_digest.py, the same-iterates check for solver changes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest_line(n: int, **threads: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    if threads:
        # OPENBLAS_NUM_THREADS and GOTO_NUM_THREADS take precedence over
        # OMP_NUM_THREADS
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS"):
            env.pop(name, None)
        env.update(threads)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "iterate_digest.py"), "--n", str(n)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return proc.stdout


def test_prints_count_and_digest_deterministically():
    # the hash itself is not pinned: another numpy/BLAS build may round the
    # last bits of an iterate differently
    first = _digest_line(6)
    assert re.fullmatch(r"n=6 outer_iterations=5 sha256=[0-9a-f]{64}\n", first)
    assert _digest_line(6) == first


def test_digest_does_not_depend_on_blas_threads():
    # OpenBLAS starts no more threads than the host has CPUs, so on a 1-CPU
    # host both runs are serial and this test cannot fail; on a 2-CPU host,
    # scipy's threaded dpotrf changed the n=64 iterates until optigon pinned
    # it to one thread
    serial = _digest_line(64, OMP_NUM_THREADS="1")
    assert serial.startswith("n=64 outer_iterations=95 ")
    assert _digest_line(64, OMP_NUM_THREADS="2") == serial
