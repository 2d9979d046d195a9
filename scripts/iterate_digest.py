#!/usr/bin/env python3
"""Print each default run's outer-iteration count and the SHA-256 of its iterates.

    PYTHONPATH=src python scripts/iterate_digest.py [--n 6 16 32 64 128]

The digest covers the bytes of every iterate z, in order. Two checkouts that
print the same lines computed the same iterates bit for bit.
"""

import argparse
import hashlib

from optigon.ccp import maximize_area


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[6, 16, 32, 64, 128])
    args = parser.parse_args()
    for n in args.n:
        result = maximize_area(n)
        digest = hashlib.sha256(b"".join(rec.z.tobytes() for rec in result.trace))
        print(f"n={n} outer_iterations={result.iterations} sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
