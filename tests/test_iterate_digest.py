"""scripts/iterate_digest.py, the same-iterates check for solver changes."""

import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath

ROOT = Path(__file__).resolve().parent.parent


def _digest_run(n: int, **settings: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    # OPENBLAS_NUM_THREADS and GOTO_NUM_THREADS take precedence over
    # OMP_NUM_THREADS; the dispatch is this host's unless settings force one
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE",
                 "NPY_DISABLE_CPU_FEATURES"):
        env.pop(name, None)
    env.update(settings)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "iterate_digest.py"), "--n", str(n)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )


def _digest_line(n: int, **settings: str) -> str:
    return _digest_run(n, **settings).stdout


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


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the forced dispatch is an x86 one")
def test_forced_dispatch_keeps_the_count_and_names_itself():
    # OpenBLAS's Haswell (AVX2) kernels and numpy without its AVX-512
    # targets round the n=16 iterates differently from the AVX-512 default,
    # but the count is the same. numpy warns on a name that its
    # __cpu_dispatch__ does not list or the host lacks, and numpy 1.x and
    # 2.x name the AVX-512 targets apart
    avx512 = [name for name in _multiarray_umath.__cpu_dispatch__
              if (name == "X86_V4" or name.startswith("AVX512"))
              and _multiarray_umath.__cpu_features__.get(name)]
    run = _digest_run(16, OPENBLAS_CORETYPE="Haswell",
                      NPY_DISABLE_CPU_FEATURES=" ".join(avx512))
    assert run.stdout.startswith("n=16 outer_iterations=44 ")
    # the build line names the versions and OpenBLAS's config string, which
    # holds spaces and the core name again
    dispatch = re.fullmatch(r"dispatch: openblas=(\S+) numpy=(\S+)\n"
                            r"build: numpy=\S+ scipy=\S+ openblas=(.+)\n", run.stderr)
    assert dispatch and dispatch[1] == "Haswell" and dispatch[2] not in avx512
    assert "Haswell" in dispatch[3].split()
