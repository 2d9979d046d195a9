#!/usr/bin/env python3
"""Print each default run's outer-iteration count and the SHA-256 of its iterates.

    PYTHONPATH=src python scripts/iterate_digest.py [--n 6 16 32 64 128]

The digest covers the bytes of every iterate z, in order. Two checkouts that
print the same lines computed the same iterates bit for bit, on one CPU
dispatch: OpenBLAS's kernels and numpy's SIMD targets both reach the last
bits, so the script first prints on stderr the dispatch it ran on, as
OpenBLAS's core name (OPENBLAS_CORETYPE overrides it) and numpy's highest
enabled SIMD target (NPY_DISABLE_CPU_FEATURES lowers it).
"""

import argparse
import ctypes
import hashlib
import importlib.util
import sys
from pathlib import Path

from optigon.ccp import maximize_area

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def openblas_core() -> str:
    """The core name of the OpenBLAS that scipy's wheels bundle, whose
    dpotrf and dpotrs optigon calls, or "unknown"."""
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    for path in sorted((scipy_dir.parent / "scipy.libs").glob("lib*openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_corename", "openblas_get_corename"):
            if hasattr(lib, name):
                corename = getattr(lib, name)
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def numpy_target() -> str:
    """numpy's highest enabled dispatch target, or else its baseline."""
    enabled = [name for name in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(name)]
    return (enabled or _multiarray_umath.__cpu_baseline__)[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[6, 16, 32, 64, 128])
    args = parser.parse_args()
    print(f"dispatch: openblas={openblas_core()} numpy={numpy_target()}", file=sys.stderr)
    for n in args.n:
        result = maximize_area(n)
        digest = hashlib.sha256(b"".join(rec.z.tobytes() for rec in result.trace))
        print(f"n={n} outer_iterations={result.iterations} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
