"""Polygons outside the paper's problem, for the tests only: negative cases
for the structure checks and inputs that the library must refuse."""

import math

import numpy as np

from optigon.geometry import Polygon


def build_regular_polygon(n: int) -> Polygon:
    """Regular small n-gon (unit diameter) with v_0 at the origin and the
    other vertices counterclockwise in y >= 0."""
    radius = 0.5 if n % 2 == 0 else 1.0 / (2.0 * math.cos(math.pi / (2 * n)))
    v = np.zeros((n, 2))
    for i in range(n):
        phi = -math.pi / 2 + 2 * math.pi * i / n
        v[i, 0] = radius * math.cos(phi)
        v[i, 1] = radius * (1.0 + math.sin(phi))
    v[0] = (0.0, 0.0)  # exact, avoids -0.0 and rounding at the anchor
    return Polygon(v)
