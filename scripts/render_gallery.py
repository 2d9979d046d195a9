#!/usr/bin/env python3
"""Render SVG drawings of the pendant start and the computed optimum for each n.

    python scripts/render_gallery.py --n 6 16 32 64 --out gallery/
"""

import argparse
import sys
from pathlib import Path

from optigon.ccp import CcpStatus, maximize_area
from optigon.geometry import build_pendant_polygon
from optigon.reporting import render_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, nargs="+", default=[6, 16, 32, 64])
    parser.add_argument("--out", type=Path, default=Path("gallery"))
    parser.add_argument("--labels", action="store_true")
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    for n in args.n:
        path = args.out / f"n{n:03d}-pendant.svg"
        path.write_text(render_svg(build_pendant_polygon(n), vertex_labels=args.labels))
        print(f"wrote {path}")
        result = maximize_area(n)
        if result.status is not CcpStatus.CONVERGED:
            print(f"n={n} failed: {result.message}", file=sys.stderr)
            return 1
        path = args.out / f"n{n:03d}-optimal.svg"
        path.write_text(render_svg(result.polygon, vertex_labels=args.labels))
        print(f"wrote {path}  (area {result.area:.10f}, k={result.iterations})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
