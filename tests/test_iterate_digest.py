"""scripts/iterate_digest.py, the same-iterates check for solver changes."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _digest_line(n: int) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
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
