"""Polygon primitives for the unit-diameter (small polygon) setting.

Conventions used throughout the package: vertex v_0 sits at the origin,
all vertices lie in the half-plane y >= 0, and v_1..v_{n-1} are ordered
counterclockwise around v_0. Unit diameter is the length scale.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPolygon

#: Feasibility tolerance of Polygon.validate and of a run's start polygon;
#: the outer loop's own checks use its noise slack, 10 * tol_solver.
TOL_FEAS = 1e-8

#: Tolerance for the unit-distance edges of a final polygon; iterates of a
#: 1e-5-converged outer loop carry coordinate error of order 1e-6.
TOL_FINAL = 1e-6


@dataclass(frozen=True, eq=False)
class Polygon:
    """Ordered polygon vertices as an immutable (n, 2) array. Polygons
    compare by identity."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.array(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise InvalidPolygon(f"expected an (n, 2) vertex array, got shape {v.shape}")
        if v.shape[0] < 3:
            raise InvalidPolygon(f"need at least 3 vertices, got {v.shape[0]}")
        if not np.isfinite(v).all():
            raise InvalidPolygon("vertex coordinates must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "vertices", v)

    @property
    def n(self) -> int:
        return self.vertices.shape[0]

    def validate(self) -> None:
        """Check the vertex-convention invariants within TOL_FEAS, raising
        on violation.

        Construction only validates shape and finiteness so that
        intermediate (infeasible) iterates can still be represented;
        this is the explicit invariant check.
        """
        v = self.vertices
        if max(abs(v[0, 0]), abs(v[0, 1])) > TOL_FEAS:
            raise InvalidPolygon(f"v_0 must be at the origin, got {tuple(v[0])}")
        if (v[:, 1] < -TOL_FEAS).any():
            raise InvalidPolygon("all vertices must satisfy y >= 0")
        cross = fan_cross(v)
        if (cross < -TOL_FEAS).any():
            i = int(np.argmin(cross)) + 1
            raise InvalidPolygon(
                f"vertices not in counterclockwise order around v_0 (fan triangle {i})"
            )


def fan_cross(v: np.ndarray) -> np.ndarray:
    """y_{i+1} x_i - x_{i+1} y_i for i = 1..n-2: twice the signed area of
    each fan triangle (v_0, v_i, v_{i+1}) of vertices with v_0 at the origin."""
    x, y = v[1:-1, 0], v[1:-1, 1]
    xn, yn = v[2:, 0], v[2:, 1]
    return yn * x - xn * y


def area(polygon: Polygon) -> float:
    """Signed area via the fan from v_0: sum of (y_{i+1} x_i - x_{i+1} y_i)/2.

    Equals the shoelace area for a simple polygon anchored at the origin.
    """
    return float(np.sum(fan_cross(polygon.vertices)) / 2.0)


def _distances(v: np.ndarray) -> np.ndarray:
    """(n, n) array of pairwise vertex distances."""
    diff = v[:, None, :] - v[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=2))


def diameter(polygon: Polygon) -> float:
    """Largest pairwise vertex distance, by exhaustive O(n^2) scan.

    The scan is the verification oracle; n <= 128 makes anything faster
    pointless.
    """
    return float(_distances(polygon.vertices).max())


def diameter_graph(polygon: Polygon, tol_diam: float = TOL_FINAL) -> list[tuple[int, int]]:
    """Unit-distance graph as the sorted pairs (i, j), i < j, whose distance
    lies in [1 - tol_diam, 1 + tol_diam]."""
    dist = _distances(polygon.vertices)
    unit = (dist >= 1.0 - tol_diam) & (dist <= 1.0 + tol_diam)
    rows, cols = np.nonzero(np.triu(unit, 1))
    return list(zip(rows.tolist(), cols.tolist()))


def pendant_area(n: int) -> float:
    """Area of the (n-1)-gon-plus-pendant-vertex polygon, even n >= 6.

    This is the regular small (n-1)-gon with one extra vertex at distance
    one along the mediatrix of one of its angles.
    """
    require_even_ge6(n)
    m = n - 1
    return (
        (m / 2.0) * (math.sin(math.pi / m) - math.tan(math.pi / (2 * m)))
        + math.sin(math.pi / (2 * m))
        - 0.5 * math.sin(math.pi / m)
    )


def upper_bound(n: int) -> float:
    """Upper bound (n/2)(sin pi/n - tan pi/2n) on the area of any small n-gon.

    Attained exactly by the regular n-gon when n is odd.
    """
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return (n / 2.0) * (math.sin(math.pi / n) - math.tan(math.pi / (2 * n)))


def build_pendant_polygon(n: int) -> Polygon:
    """Construct the pendant-vertex n-gon (even n >= 6), the standard start.

    Vertices 1..n/2-1 are scaled points of the regular (n-1)-gon, the apex
    n/2 sits at (0, 1), and the rest mirror across x = 0.
    """
    require_even_ge6(n)
    m = n - 1
    scale = 2.0 * math.cos(math.pi / (2 * m))
    v = np.zeros((n, 2))
    for i in range(1, n // 2):
        v[i, 0] = math.sin(2 * i * math.pi / m) / scale
        v[i, 1] = (1.0 - math.cos(2 * i * math.pi / m)) / scale
    v[n // 2] = (0.0, 1.0)
    for i in range(1, n // 2):
        v[n - i, 0] = -v[i, 0]
        v[n - i, 1] = v[i, 1]
    return Polygon(v)


def require_even_ge6(n: int) -> None:
    """Raise ValueError unless n is an even integer >= 6, the paper's n = 2m:
    the only n that the program, the pendant start and the structure checks
    take."""
    if not isinstance(n, numbers.Integral):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n % 2 != 0 or n < 6:
        raise ValueError(f"n must be even and >= 6, got {n}")


def require_positive_real(name: str, value) -> None:
    """Raise ValueError naming `name` unless value is a finite positive real
    number. A bool is refused, though it is an int subclass."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not 0.0 < value < math.inf):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


# ---------------------------------------------------------------------------
# JSON round trip: {"n": int, "vertices": [[x, y], ...]}, 17 significant
# digits so that serialization is exact under round trip.

def polygon_to_json(polygon: Polygon) -> str:
    rows = ",\n    ".join(
        f"[{v[0]:.17g}, {v[1]:.17g}]" for v in polygon.vertices
    )
    return f'{{\n  "n": {polygon.n},\n  "vertices": [\n    {rows}\n  ]\n}}\n'


def polygon_from_json(text: str) -> Polygon:
    try:
        data = json.loads(text)
        n, vertices = data["n"], data["vertices"]
        count, v = len(vertices), np.asarray(vertices, dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidPolygon(f"malformed polygon JSON: {exc}") from exc
    # a JSON integer; bool is an int subclass, so true would read as 1
    if type(n) is not int:
        raise InvalidPolygon(f"malformed polygon JSON: n must be an integer, got {n!r}")
    if count != n:
        raise InvalidPolygon(f"vertex count {count} does not match n={n}")
    return Polygon(v)


def load_polygon(path) -> Polygon:
    with open(path, "r", encoding="utf-8") as fh:
        return polygon_from_json(fh.read())
