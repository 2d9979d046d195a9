"""The maximal-area program and its convex restrictions, as cone arrays.

Decision vector z = (x_1..x_{n-1}, y_1..y_{n-1}, u_1..u_{n-2}); the anchor
v_0 = (0, 0) is eliminated rather than constrained. The program maximizes the
fan area sum u_i subject to

    (x_j - x_i)^2 + (y_j - y_i)^2 <= 1    distance, 1 <= i < j <= n-1
    x_i^2 + y_i^2 <= 1                    radius (distance to v_0)
    y_i >= 0                              half-plane
    2 u_i <= y_{i+1} x_i - x_{i+1} y_i    triangle area, 1 <= i <= n-2
    u_i >= 0

The triangle-area constraint is the only nonconvex one. It is split as a
difference of convex quadratics, 4 (y_{i+1} x_i - x_{i+1} y_i - 2 u_i) =
g - h, with

    g = (y_{i+1} + x_i)^2 + (x_{i+1} - y_i)^2
    h = (y_{i+1} - x_i)^2 + (x_{i+1} + y_i)^2 + 8 u_i,

and the convex restriction at a reference point c replaces g by its tangent
at c. Every constraint of a restriction is then a sign row y_i >= 0 or
u_i >= 0, which the cone problem keeps as the column alone, or
l_1(z)^2 + l_2(z)^2 <= b(z) with affine l_1, l_2, b, the Q^4 block
((1 + b)/2, l_1, l_2, (1 - b)/2). `ConeTemplate` holds the rows of one n,
the distance pairs as column indices alone, and builds the restriction at
each reference point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# np.einsum(*operands, out=out) is c_einsum(*operands, out=out) behind a
# Python wrapper and its dispatcher; the G products and the solver's KKT
# assembly call it directly. Its home is numpy._core on numpy >= 2, whose
# numpy.core shim warns on import.
try:
    from numpy._core.multiarray import c_einsum
except ImportError:  # numpy 1.x
    from numpy.core.multiarray import c_einsum

from .errors import DimensionMismatch
from .geometry import Polygon, fan_cross, require_even_ge6

__all__ = [
    "EvaluationReport",
    "ConeProblem",
    "ConeTemplate",
    "polygon_to_vector",
    "vector_to_polygon",
]


@dataclass(frozen=True)
class EvaluationReport:
    """Per-constraint residuals g_i(z) - h_i(z), in cone row order, and the
    objective value."""

    objective: float
    residuals: np.ndarray

    def min_residual(self) -> float:
        return float(self.residuals.min())


def _checked(z: np.ndarray, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise DimensionMismatch(f"expected decision vector of shape ({dim},), got {z.shape}")
    if not np.isfinite(z).all():
        raise DimensionMismatch("decision vector must be finite")
    return z


@dataclass(frozen=True, eq=False)
class ConeProblem:
    """minimize c^T x subject to G x + s = h, s in R^p_+ x (Q^4)^m.

    G is kept in fixed-shape arrays, component-major so that numpy loops run
    over the m blocks. Every nonnegative row is a sign row: row r is
    -x[nn_cols[r]]. Row j (0..3) of second-order block b is
    sum_k soc_coef[j, k, b] x[soc_cols[k, b]]; unused slots carry a zero
    coefficient. h, like every cone vector, holds the p nonnegative rows,
    then row 0 of every block, row 1 of every block, and so on.
    """

    c: np.ndarray
    h: np.ndarray
    nn_cols: np.ndarray
    soc_cols: np.ndarray
    soc_coef: np.ndarray

    # cached_property writes __dict__, so it works on this frozen dataclass;
    # after the first call each lookup is a plain attribute read
    @cached_property
    def dim(self) -> int:
        return len(self.c)

    @cached_property
    def n_nonneg(self) -> int:
        return len(self.nn_cols)

    @cached_property
    def n_soc(self) -> int:
        return self.soc_cols.shape[1]

    @cached_property
    def n_rows(self) -> int:
        return self.n_nonneg + 4 * self.n_soc

    @cached_property
    def cols(self) -> np.ndarray:
        """The column of every slot: nonnegative rows, then blocks."""
        return np.concatenate([self.nn_cols, self.soc_cols.ravel()])

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """G x."""
        p = self.n_nonneg
        out = np.empty(self.n_rows)
        np.negative(x[self.nn_cols], out=out[:p])
        c_einsum("jkb,kb->jb", self.soc_coef, x[self.soc_cols], out=out[p:].reshape(4, -1))
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """G^T y."""
        p = self.n_nonneg
        weights = np.empty(len(self.cols))
        np.negative(y[:p], out=weights[:p])
        c_einsum("jkb,jb->kb", self.soc_coef, y[p:].reshape(4, -1),
                 out=weights[p:].reshape(self.soc_cols.shape))
        return np.bincount(self.cols, weights, minlength=self.dim)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Restriction residuals at x: b(x) for a nonnegative row, and
        b(x) - l_1(x)^2 - l_2(x)^2 for a block ((1 + b)/2, l_1, l_2, (1 - b)/2)."""
        s = self.h - self.matvec(x)
        p = self.n_nonneg
        soc = s[p:].reshape(4, -1)
        return np.concatenate([s[:p], soc[0] - soc[3] - soc[1] ** 2 - soc[2] ** 2])


class ConeTemplate:
    """The cone problem of every convex restriction of the n-gon program.

    Built once per even n >= 6; any other n raises ValueError. The
    nonnegative rows are the n-1 half-plane rows y_i >= 0, then the n-2 rows
    u_i >= 0, each the sign row of its column; the Q^4 blocks are the distance pairs (i, j) in row-major
    order of i < j, then the n-1 radius blocks, then the n-2 triangle-area
    blocks. Every distance block has the same coefficients, so the template
    keeps the pairs only as their columns `pairs`, rows (x_i, x_j, y_i, y_j)
    of a (4, n_pairs) array, and keeps the radius and triangle blocks in
    fixed-shape arrays. Restrictions differ only in the triangle blocks,
    whose first and last rows hold the tangent of g at c, and in which
    distance blocks they hold.

    `at(c, keep)` builds every restriction, from c and keep alone;
    `distance_sq` gives every pair's squared length, to choose and to check
    the pairs.
    """

    def __init__(self, n: int):
        require_even_ge6(n)
        self.n = n
        self.dim = 3 * n - 4                # length of the decision vector z
        x = np.arange(n - 1)                # x index of vertex i + 1
        y = x + n - 1
        u = np.arange(n - 2) + 2 * (n - 1)
        i, j = np.triu_indices(n - 1, k=1)  # distance pairs, row-major
        t = np.arange(n - 2)                # triangle (t + 1, t + 2)
        self.pairs = np.stack([x[i], x[j], y[i], y[j]])
        self.n_pairs = len(i)
        self._tri = slice(n - 1, 2 * n - 3)  # of the radius and triangle blocks

        # columns and coefficients of the radius blocks, then the triangle
        # blocks. radius: l = (x_i, y_i); triangle: l = (y_{i+1} - x_i,
        # x_{i+1} + y_i) over (x_i, x_{i+1}, y_i, y_{i+1}, u_i), whose rows 0
        # and 3 each restriction sets
        self._cols = np.zeros((5, 2 * n - 3), dtype=np.intp)
        self._coef = np.zeros((4, 5, 2 * n - 3))
        self._cols[:2, : n - 1] = x, y
        self._coef[1, 0, : n - 1] = -1.0
        self._coef[2, 1, : n - 1] = -1.0
        self._cols[:, self._tri] = x[t], x[t + 1], y[t], y[t + 1], u
        self._coef[1, :, self._tri] = [[1.0], [0.0], [0.0], [-1.0], [0.0]]
        self._coef[2, :, self._tri] = [[0.0], [-1.0], [-1.0], [0.0], [0.0]]

        self._c = np.zeros(self.dim)
        self._c[u] = -1.0
        self._nn_cols = np.concatenate([y, u])

    def at(self, c: np.ndarray, keep: np.ndarray) -> ConeProblem:
        """The restriction at reference point c, holding the distance blocks
        of the pairs where the boolean mask `keep` (one entry per pair, in
        block order) is true; every other row is kept."""
        c = _checked(c, self.dim)
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.n_pairs,):
            raise ValueError(f"keep must be a boolean mask of shape ({self.n_pairs},)")
        pairs = int(keep.sum())
        fixed = self._cols.shape[1]
        soc_cols = np.zeros((5, pairs + fixed), dtype=np.intp)
        soc_cols[:4, :pairs] = self.pairs[:, keep]
        soc_cols[:, pairs:] = self._cols
        coef = np.zeros((4, 5, pairs + fixed))
        # distance: l = (x_j - x_i, y_j - y_i) over (x_i, x_j, y_i, y_j)
        coef[1, 0, :pairs], coef[1, 1, :pairs] = 1.0, -1.0
        coef[2, 2, :pairs], coef[2, 3, :pairs] = 1.0, -1.0
        coef[:, :, pairs:] = self._coef
        p = len(self._nn_cols)
        h = np.zeros(p + 4 * (pairs + fixed))
        h_soc = h[p:].reshape(4, -1)
        h_soc[0] = 1.0

        tri = slice(pairs + self._tri.start, None)
        x_i, x_next, y_i, y_next, _ = c[self._cols[:, self._tri]]
        a = y_next + x_i                    # g = a^2 + b^2
        b = x_next - y_i
        # bound = tangent of g at c minus 8 u_i
        bound = np.array([2.0 * a, 2.0 * b, -2.0 * b, 2.0 * a, np.full_like(a, -8.0)])
        offset = -(a * a + b * b)
        coef[0, :, tri] = -0.5 * bound
        coef[3, :, tri] = 0.5 * bound
        h_soc[0, tri] = 0.5 + 0.5 * offset
        h_soc[3, tri] = 0.5 - 0.5 * offset
        return ConeProblem(
            c=self._c,
            h=h,
            nn_cols=self._nn_cols,
            soc_cols=soc_cols,
            soc_coef=coef,
        )

    def distance_sq(self, z: np.ndarray) -> np.ndarray:
        """Squared distance at z of every distance pair, in block order."""
        z = _checked(z, self.dim)
        x_i, x_j, y_i, y_j = z[self.pairs]
        return (x_j - x_i) ** 2 + (y_j - y_i) ** 2

    def evaluate(self, z: np.ndarray) -> EvaluationReport:
        """Program residuals g_i(z) - h_i(z), in cone row order, and the
        objective. The distance residuals are those the restriction's blocks
        give, 1 - (x_i - x_j)^2 - (y_i - y_j)^2, in closed form."""
        z = _checked(z, self.dim)
        x_i, x_j, y_i, y_j = z[self.pairs]
        distance = (1.0 - (x_i - x_j) ** 2) - (y_i - y_j) ** 2
        rest = self.at(z, np.zeros(self.n_pairs, dtype=bool)).residuals(z)
        p = len(self._nn_cols)
        return EvaluationReport(
            objective=float(-(self._c @ z)),
            residuals=np.concatenate([rest[:p], distance, rest[p:]]),
        )


def polygon_to_vector(polygon: Polygon) -> np.ndarray:
    """Pack a polygon into a decision vector, with u_i set to the exact fan
    triangle areas (tight for the triangle-area constraints)."""
    n = polygon.n
    v = polygon.vertices
    z = np.zeros(3 * n - 4)
    z[: n - 1] = v[1:, 0]
    z[n - 1 : 2 * (n - 1)] = v[1:, 1]
    z[2 * (n - 1) :] = fan_cross(v) / 2.0
    return z


def vector_to_polygon(z: np.ndarray, n: int) -> Polygon:
    z = _checked(z, 3 * n - 4)
    v = np.zeros((n, 2))
    v[1:, 0] = z[: n - 1]
    v[1:, 1] = z[n - 1 : 2 * (n - 1)]
    return Polygon(v)
