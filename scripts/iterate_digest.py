#!/usr/bin/env python3
"""Print each default run's outer-iteration count and the SHA-256 of its iterates.

    PYTHONPATH=src python scripts/iterate_digest.py [--n 6 16 32 64 128]

The digest covers the bytes of every iterate z, in order. Two checkouts that
print the same lines computed the same iterates bit for bit, on one numpy and
scipy build and one CPU dispatch: OpenBLAS's build and kernels and numpy's
SIMD targets all reach the last bits. So the script first prints on stderr
the dispatch it ran on, as OpenBLAS's core name (OPENBLAS_CORETYPE overrides
it) and numpy's highest enabled SIMD target (NPY_DISABLE_CPU_FEATURES lowers
it), and then the build, as the numpy and scipy versions and OpenBLAS's
config string.
"""

import argparse
import ctypes
import hashlib
import importlib.metadata
import importlib.util
import sys
from pathlib import Path

import numpy

from optigon.ccp import maximize_area

try:
    from numpy._core import _multiarray_umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath


def openblas() -> tuple[str, str]:
    """The core name and the config string of the OpenBLAS that scipy's
    wheels bundle, whose dpotrf and dpotrs optigon calls, or "unknown"
    twice."""
    scipy_dir = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
    for path in sorted((scipy_dir.parent / "scipy.libs").glob("lib*openblas*.so")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            if hasattr(lib, f"{prefix}_get_corename"):
                return tuple(_string(getattr(lib, f"{prefix}_get_{what}"))
                             for what in ("corename", "config"))
    return "unknown", "unknown"


def _string(function) -> str:
    """The C string a no-argument library function returns."""
    function.restype = ctypes.c_char_p
    return function().decode()


def numpy_target() -> str:
    """numpy's highest enabled dispatch target, or else its baseline."""
    enabled = [name for name in _multiarray_umath.__cpu_dispatch__
               if _multiarray_umath.__cpu_features__.get(name)]
    return (enabled or _multiarray_umath.__cpu_baseline__)[-1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[6, 16, 32, 64, 128])
    args = parser.parse_args()
    core, config = openblas()
    print(f"dispatch: openblas={core} numpy={numpy_target()}", file=sys.stderr)
    print(f"build: numpy={numpy.__version__} scipy={importlib.metadata.version('scipy')}"
          f" openblas={config}", file=sys.stderr)
    for n in args.n:
        result = maximize_area(n)
        digest = hashlib.sha256(b"".join(rec.z.tobytes() for rec in result.trace))
        print(f"n={n} outer_iterations={result.iterations} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
