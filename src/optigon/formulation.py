"""Difference-of-convex encoding of the maximal-area program.

Decision vector z = (x_1..x_{n-1}, y_1..y_{n-1}, u_1..u_{n-2}); the anchor
coordinates x_0 = y_0 = 0 are eliminated at the layout level rather than
constrained. Each constraint is stored as a pair (g, h) of convex
quadratics with meaning g(z) - h(z) >= 0, where g is the part that gets
tangent-linearized when building a convex restriction and h is kept. Convex
quadratics are stored as sums of squares of linear forms plus an affine
part, which makes positive semidefiniteness structural and feeds the cone
lifting directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DimensionMismatch, NonConvexConstraint
from .geometry import Polygon

__all__ = [
    "Family",
    "DecisionLayout",
    "LinearForm",
    "ConvexQuadratic",
    "DcConstraint",
    "DcProgram",
    "RestrictionConstraint",
    "ConvexSubproblem",
    "EvaluationReport",
    "ConeProblem",
    "ConeTemplate",
    "build_program",
    "build_restriction",
    "evaluate",
    "lift",
    "polygon_to_vector",
    "vector_to_polygon",
]


class Family(enum.Enum):
    DISTANCE = "distance"
    RADIUS = "radius"
    HALF_PLANE = "half_plane"
    TRIANGLE_AREA = "triangle_area"
    NONNEG_U = "nonneg_u"


@dataclass(frozen=True)
class DecisionLayout:
    """Flat index map for the decision vector of an n-gon program."""

    n: int

    @property
    def dim(self) -> int:
        return 3 * self.n - 4

    def x(self, i: int) -> int:
        self._check_vertex(i)
        return i - 1

    def y(self, i: int) -> int:
        self._check_vertex(i)
        return (self.n - 1) + i - 1

    def u(self, i: int) -> int:
        if not 1 <= i <= self.n - 2:
            raise IndexError(f"u index {i} out of range 1..{self.n - 2}")
        return 2 * (self.n - 1) + i - 1

    def _check_vertex(self, i: int) -> None:
        if not 1 <= i <= self.n - 1:
            raise IndexError(f"vertex index {i} out of range 1..{self.n - 1}")


@dataclass(frozen=True)
class LinearForm:
    """Sparse affine form: offset + sum_k coeffs[k] * z[indices[k]]."""

    indices: tuple[int, ...]
    coeffs: tuple[float, ...]
    offset: float = 0.0

    def value(self, z: np.ndarray) -> float:
        total = self.offset
        for i, c in zip(self.indices, self.coeffs):
            total += c * z[i]
        return total

    def gradient(self, dim: int) -> np.ndarray:
        g = np.zeros(dim)
        for i, c in zip(self.indices, self.coeffs):
            g[i] += c
        return g


ZERO_FORM = LinearForm(indices=(), coeffs=(), offset=0.0)


@dataclass(frozen=True)
class ConvexQuadratic:
    """q(z) = sum_k l_k(z)^2 + a(z) with affine a; convex by construction."""

    squares: tuple[LinearForm, ...] = ()
    affine: LinearForm = ZERO_FORM

    def value(self, z: np.ndarray) -> float:
        total = self.affine.value(z)
        for form in self.squares:
            total += form.value(z) ** 2
        return total

    def gradient(self, z: np.ndarray, dim: int) -> np.ndarray:
        g = self.affine.gradient(dim)
        for form in self.squares:
            val = 2.0 * form.value(z)
            for i, c in zip(form.indices, form.coeffs):
                g[i] += val * c
        return g

    def linearize(self, c: np.ndarray, dim: int) -> LinearForm:
        """Tangent underestimator q(c) + grad q(c)^T (z - c) as an affine form."""
        grad = self.gradient(c, dim)
        nz = np.nonzero(grad)[0]
        offset = self.value(c) - float(grad @ c)
        return LinearForm(
            indices=tuple(int(i) for i in nz),
            coeffs=tuple(float(grad[i]) for i in nz),
            offset=offset,
        )


@dataclass(frozen=True)
class DcConstraint:
    """One constraint g(z) - h(z) >= 0 with its family tag and vertex indices."""

    family: Family
    g: ConvexQuadratic
    h: ConvexQuadratic
    vertices: tuple[int, ...]

    def residual(self, z: np.ndarray) -> float:
        return self.g.value(z) - self.h.value(z)


@dataclass(frozen=True)
class DcProgram:
    """The full maximal-area program for one n, in difference-of-convex form."""

    layout: DecisionLayout
    objective_g: ConvexQuadratic
    objective_h: ConvexQuadratic
    constraints: tuple[DcConstraint, ...]

    @property
    def n(self) -> int:
        return self.layout.n

    @property
    def dim(self) -> int:
        return self.layout.dim

    def objective(self, z: np.ndarray) -> float:
        return self.objective_g.value(z) - self.objective_h.value(z)

    def family_counts(self) -> dict[Family, int]:
        counts = {family: 0 for family in Family}
        for con in self.constraints:
            counts[con.family] += 1
        return counts



@dataclass(frozen=True)
class RestrictionConstraint:
    """Convex constraint sum_k l_k(z)^2 <= bound(z) with affine bound."""

    family: Family
    squares: tuple[LinearForm, ...]
    bound: LinearForm
    vertices: tuple[int, ...]

    def residual(self, z: np.ndarray) -> float:
        total = self.bound.value(z)
        for form in self.squares:
            total -= form.value(z) ** 2
        return total


@dataclass(frozen=True)
class ConvexSubproblem:
    """Convex restriction of a DcProgram at a reference point.

    Feasible whenever the reference point is feasible for the original
    program, and every feasible point of the restriction is feasible for
    the original.
    """

    layout: DecisionLayout
    objective: LinearForm
    constraints: tuple[RestrictionConstraint, ...]
    reference: np.ndarray

    @property
    def dim(self) -> int:
        return self.layout.dim

    def residuals(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected decision vector of shape ({self.dim},), got {z.shape}"
            )
        return np.array([con.residual(z) for con in self.constraints])

    def is_feasible(self, z: np.ndarray, tol: float = 0.0) -> bool:
        return bool(self.residuals(z).min() >= -tol)


@dataclass(frozen=True)
class EvaluationReport:
    """Per-constraint residuals g_i(z) - h_i(z) and the objective value."""

    objective: float
    residuals: np.ndarray
    families: tuple[Family, ...]

    def min_residual(self) -> float:
        return float(self.residuals.min())

    def by_family(self, family: Family) -> np.ndarray:
        mask = np.array([f is family for f in self.families])
        return self.residuals[mask]


def _checked(z: np.ndarray, dim: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise DimensionMismatch(f"expected decision vector of shape ({dim},), got {z.shape}")
    if not np.isfinite(z).all():
        raise DimensionMismatch("decision vector must be finite")
    return z


def build_program(n: int) -> DcProgram:
    """Assemble the five constraint families of the n-gon area program."""
    if n < 4:
        raise ValueError(f"n must be >= 4, got {n}")
    layout = DecisionLayout(n)
    constraints: list[DcConstraint] = []
    one = ConvexQuadratic(affine=LinearForm((), (), 1.0))

    def lf(pairs, offset=0.0):
        idx, coef = zip(*pairs)
        return LinearForm(indices=idx, coeffs=coef, offset=offset)

    # pairwise distances: (x_j - x_i)^2 + (y_j - y_i)^2 <= 1
    for i, j in combinations(range(1, n), 2):
        quad = ConvexQuadratic(
            squares=(
                lf([(layout.x(j), 1.0), (layout.x(i), -1.0)]),
                lf([(layout.y(j), 1.0), (layout.y(i), -1.0)]),
            )
        )
        constraints.append(DcConstraint(Family.DISTANCE, g=one, h=quad, vertices=(i, j)))

    # distance to the anchor: x_i^2 + y_i^2 <= 1
    for i in range(1, n):
        quad = ConvexQuadratic(
            squares=(lf([(layout.x(i), 1.0)]), lf([(layout.y(i), 1.0)]))
        )
        constraints.append(DcConstraint(Family.RADIUS, g=one, h=quad, vertices=(i,)))

    # upper half-plane: y_i >= 0
    for i in range(1, n):
        g = ConvexQuadratic(affine=lf([(layout.y(i), 1.0)]))
        constraints.append(
            DcConstraint(Family.HALF_PLANE, g=g, h=ConvexQuadratic(), vertices=(i,))
        )

    # fan triangle areas, difference-of-convex split of
    # 2 u_i <= y_{i+1} x_i - x_{i+1} y_i:
    #   g = (y_{i+1} + x_i)^2 + (x_{i+1} - y_i)^2
    #   h = (y_{i+1} - x_i)^2 + (x_{i+1} + y_i)^2 + 8 u_i
    for i in range(1, n - 1):
        g = ConvexQuadratic(
            squares=(
                lf([(layout.y(i + 1), 1.0), (layout.x(i), 1.0)]),
                lf([(layout.x(i + 1), 1.0), (layout.y(i), -1.0)]),
            )
        )
        h = ConvexQuadratic(
            squares=(
                lf([(layout.y(i + 1), 1.0), (layout.x(i), -1.0)]),
                lf([(layout.x(i + 1), 1.0), (layout.y(i), 1.0)]),
            ),
            affine=lf([(layout.u(i), 8.0)]),
        )
        constraints.append(DcConstraint(Family.TRIANGLE_AREA, g=g, h=h, vertices=(i, i + 1)))

    # u_i >= 0
    for i in range(1, n - 1):
        g = ConvexQuadratic(affine=lf([(layout.u(i), 1.0)]))
        constraints.append(
            DcConstraint(Family.NONNEG_U, g=g, h=ConvexQuadratic(), vertices=(i,))
        )

    objective_g = ConvexQuadratic(
        affine=LinearForm(
            indices=tuple(layout.u(i) for i in range(1, n - 1)),
            coeffs=(1.0,) * (n - 2),
        )
    )
    return DcProgram(
        layout=layout,
        objective_g=objective_g,
        objective_h=ConvexQuadratic(),
        constraints=tuple(constraints),
    )


def build_restriction(prog: DcProgram, c: np.ndarray) -> ConvexSubproblem:
    """Convex restriction at c: replace each g_i by its tangent at c.

    Constraints whose g_i is affine (all families except the triangle-area
    one, whose linearization reproduces them exactly) pass through
    unchanged; the triangle-area family becomes
    sum-of-squares(h) <= tangent(g at c) - affine(h).
    """
    c = _checked(c, prog.dim)
    dim = prog.dim
    restricted = []
    for con in prog.constraints:
        gbar = con.g.linearize(c, dim)
        # bound(z) = gbar(z; c) - affine part of h, keeping h's squares on the left
        ha = con.h.affine
        merged = _subtract_affine(gbar, ha, dim)
        restricted.append(
            RestrictionConstraint(
                family=con.family,
                squares=con.h.squares,
                bound=merged,
                vertices=con.vertices,
            )
        )
    # the objective is linear, so its linearization is the identity
    return ConvexSubproblem(
        layout=prog.layout,
        objective=prog.objective_g.affine,
        constraints=tuple(restricted),
        reference=c.copy(),
    )


def _subtract_affine(a: LinearForm, b: LinearForm, dim: int) -> LinearForm:
    if not b.indices and b.offset == 0.0:
        return a
    grad = a.gradient(dim) - b.gradient(dim)
    nz = np.nonzero(grad)[0]
    return LinearForm(
        indices=tuple(int(i) for i in nz),
        coeffs=tuple(float(grad[i]) for i in nz),
        offset=a.offset - b.offset,
    )


def evaluate(prog: DcProgram, z: np.ndarray) -> EvaluationReport:
    """Residuals g_i(z) - h_i(z) for every constraint plus the objective."""
    z = _checked(z, prog.dim)
    residuals = np.array([con.residual(z) for con in prog.constraints])
    return EvaluationReport(
        objective=prog.objective(z),
        residuals=residuals,
        families=tuple(con.family for con in prog.constraints),
    )


@dataclass(frozen=True, eq=False)
class ConeProblem:
    """minimize c^T x subject to G x + s = h, s in R^p_+ x (Q^4)^m.

    G is kept in fixed-shape arrays, component-major so that numpy loops run
    over the m blocks. Nonnegative row r is sum_k nn_coef[k, r] x[nn_cols[k, r]];
    row j (0..3) of second-order block b is
    sum_k soc_coef[j, k, b] x[soc_cols[k, b]]. Unused slots carry a zero
    coefficient. h, like every cone vector, holds the p nonnegative rows,
    then row 0 of every block, row 1 of every block, and so on.
    """

    c: np.ndarray
    h: np.ndarray
    nn_cols: np.ndarray
    nn_coef: np.ndarray
    soc_cols: np.ndarray
    soc_coef: np.ndarray
    nonneg_families: tuple[Family, ...] = ()
    soc_families: tuple[Family, ...] = ()

    @property
    def dim(self) -> int:
        return len(self.c)

    @property
    def n_nonneg(self) -> int:
        return self.nn_cols.shape[1]

    @property
    def n_soc(self) -> int:
        return self.soc_cols.shape[1]

    @property
    def n_rows(self) -> int:
        return self.n_nonneg + 4 * self.n_soc

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """G x."""
        nn = np.einsum("kr,kr->r", self.nn_coef, x[self.nn_cols])
        soc = np.einsum("jkb,kb->jb", self.soc_coef, x[self.soc_cols])
        return np.concatenate([nn, soc.ravel()])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """G^T y."""
        p = self.n_nonneg
        nn = self.nn_coef * y[:p]
        soc = np.einsum("jkb,jb->kb", self.soc_coef, y[p:].reshape(4, -1))
        return np.bincount(
            self._cols, np.concatenate([nn.ravel(), soc.ravel()]), minlength=self.dim
        )

    def gram(
        self, d: np.ndarray, v: np.ndarray | None = None, beta: np.ndarray | None = None
    ) -> np.ndarray:
        """Dense G^T M G for M = diag(d), plus beta_b v_b v_b^T on each block b
        when v (shape (4, m)) and beta (shape (m,)) are given."""
        p = self.n_nonneg
        N, A = self.nn_coef, self.soc_coef
        nn = (N * d[:p])[:, None, :] * N[None, :, :]
        soc = np.einsum("jkb,jlb->klb", A * d[p:].reshape(4, 1, -1), A)
        if v is not None:
            u = np.einsum("jkb,jb->kb", A, v)
            soc += (beta * u)[:, None, :] * u[None, :, :]
        weights = np.concatenate([nn.ravel(), soc.ravel()])
        dim = self.dim
        return np.bincount(self._pairs, weights, minlength=dim * dim).reshape(dim, dim)

    def residuals(self, x: np.ndarray) -> np.ndarray:
        """Restriction residuals at x: b(x) for a nonnegative row, and
        b(x) - l_1(x)^2 - l_2(x)^2 for a block ((1 + b)/2, l_1, l_2, (1 - b)/2)."""
        s = self.h - self.matvec(x)
        p = self.n_nonneg
        soc = s[p:].reshape(4, -1)
        return np.concatenate([s[:p], soc[0] - soc[3] - soc[1] ** 2 - soc[2] ** 2])

    # column patterns; fixed for every restriction of one n
    @cached_property
    def _cols(self) -> np.ndarray:
        return np.concatenate([self.nn_cols.ravel(), self.soc_cols.ravel()])

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Flat index into the dim x dim Gram matrix of every slot pair (k, l)."""
        return np.concatenate(
            [(cols[:, None, :] * self.dim + cols[None, :, :]).ravel()
             for cols in (self.nn_cols, self.soc_cols)]
        )


def lift(sub: ConvexSubproblem) -> ConeProblem:
    """Rewrite a convex restriction as a cone problem.

    A constraint l_1(z)^2 + l_2(z)^2 <= b(z) becomes the block
    ((1 + b)/2, l_1, l_2, (1 - b)/2) in Q^4, since
    ((1+b)/2)^2 - ((1-b)/2)^2 = b; a constraint without squares becomes the
    nonnegative row b(z) >= 0. Raises NonConvexConstraint for any other
    shape. Nonnegative rows come first, then the blocks, each in
    constraint order.
    """
    for con in sub.constraints:
        forms = (con.bound, *con.squares)
        if len(con.squares) not in (0, 2) or not all(isinstance(f, LinearForm) for f in forms):
            raise NonConvexConstraint(
                f"constraint {con.family} is neither affine >= 0 nor two squares <= affine"
            )
    nonneg = [con for con in sub.constraints if not con.squares]
    blocks = [con for con in sub.constraints if con.squares]
    nn_cols, nn_coef, nn_h = _pack([[(con.bound, 1.0, 0.0)] for con in nonneg])
    soc_cols, soc_coef, soc_h = _pack(
        [[(con.bound, 0.5, 0.5), (con.squares[0], 1.0, 0.0), (con.squares[1], 1.0, 0.0),
          (con.bound, -0.5, 0.5)] for con in blocks],
        n_rows=4,
    )
    return ConeProblem(
        c=-sub.objective.gradient(sub.dim),
        h=np.concatenate([nn_h.ravel(), soc_h.ravel()]),
        nn_cols=nn_cols,
        nn_coef=nn_coef[0],
        soc_cols=soc_cols,
        soc_coef=soc_coef,
        nonneg_families=tuple(con.family for con in nonneg),
        soc_families=tuple(con.family for con in blocks),
    )


def _pack(groups, n_rows=1):
    """Columns (K, N), coefficients (R, K, N) and h (R, N) of N groups of R
    rows sharing one column list; a row (form, scale, shift) is the cone row
    shift + scale * form(z)."""
    cols = [sorted({j for form, _, _ in rows for j in form.indices}) for rows in groups]
    width = max([len(c) for c in cols] + [1])
    col_arr = np.zeros((width, len(groups)), dtype=np.intp)
    coef = np.zeros((n_rows, width, len(groups)))
    h = np.zeros((n_rows, len(groups)))
    for b, (rows, used) in enumerate(zip(groups, cols)):
        col_arr[: len(used), b] = used
        slot = {j: k for k, j in enumerate(used)}
        for r, (form, scale, shift) in enumerate(rows):
            for j, value in zip(form.indices, form.coeffs):
                coef[r, slot[j], b] -= scale * value
            h[r, b] = shift + scale * form.offset
    return col_arr, coef, h


class ConeTemplate:
    """The cone problem of every convex restriction of the n-gon program.

    Built once per n, with the rows of lift(build_restriction(prog, c)) in
    the same order. Restrictions differ only in the n-2 triangle-area
    blocks, whose first and last rows hold the tangent of g at c; `at`
    rewrites those rows of G and h in place. `screened` copies the current
    restriction without some distance blocks; `distance_sq` gives every
    distance pair's squared length, to choose and to check those blocks.
    """

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(f"n must be >= 4, got {n}")
        self.layout = DecisionLayout(n)
        x = np.arange(n - 1)                # x index of vertex i + 1
        y = x + n - 1
        u = np.arange(n - 2) + 2 * (n - 1)
        i, j = np.triu_indices(n - 1, k=1)  # distance pairs, in program order
        t = np.arange(n - 2)                # triangle (t + 1, t + 2)
        pairs, verts, tris = len(i), n - 1, n - 2
        self.n_pairs = pairs
        dist, rad = slice(0, pairs), slice(pairs, pairs + verts)
        self._tri = slice(pairs + verts, pairs + verts + tris)

        cols = np.zeros((5, pairs + verts + tris), dtype=np.intp)
        coef = np.zeros((4, 5, cols.shape[1]))
        # distance: l = (x_j - x_i, y_j - y_i); radius: l = (x_i, y_i)
        cols[:4, dist] = x[i], x[j], y[i], y[j]
        coef[1, :2, dist] = [[1.0], [-1.0]]
        coef[2, 2:4, dist] = [[1.0], [-1.0]]
        cols[:2, rad] = x, y
        coef[1, 0, rad] = -1.0
        coef[2, 1, rad] = -1.0
        # triangle: l = (y_{i+1} - x_i, x_{i+1} + y_i) over (x_i, x_{i+1}, y_i, y_{i+1}, u_i)
        cols[:, self._tri] = x[t], x[t + 1], y[t], y[t + 1], u
        coef[1, :, self._tri] = [[1.0], [0.0], [0.0], [-1.0], [0.0]]
        coef[2, :, self._tri] = [[0.0], [-1.0], [-1.0], [0.0], [0.0]]
        h = np.zeros(2 * n - 3 + 4 * cols.shape[1])
        self._h_soc = h[2 * n - 3:].reshape(4, -1)
        self._h_soc[0] = 1.0

        c = np.zeros(self.layout.dim)
        c[u] = -1.0
        self.cone = ConeProblem(
            c=c,
            h=h,
            nn_cols=np.concatenate([y, u])[None, :],
            nn_coef=np.full((1, 2 * n - 3), -1.0),
            soc_cols=cols,
            soc_coef=coef,
            nonneg_families=(Family.HALF_PLANE,) * verts + (Family.NONNEG_U,) * tris,
            soc_families=(Family.DISTANCE,) * pairs + (Family.RADIUS,) * verts
            + (Family.TRIANGLE_AREA,) * tris,
        )

    @property
    def n(self) -> int:
        return self.layout.n

    def at(self, c: np.ndarray) -> ConeProblem:
        """The restriction at reference point c; rewrites the triangle rows."""
        c = _checked(c, self.layout.dim)
        x_i, x_next, y_i, y_next, _ = c[self.cone.soc_cols[:, self._tri]]
        a = y_next + x_i                    # g = a^2 + b^2
        b = x_next - y_i
        # bound = tangent of g at c minus 8 u_i
        bound = np.array([2.0 * a, 2.0 * b, -2.0 * b, 2.0 * a, np.full_like(a, -8.0)])
        offset = -(a * a + b * b)
        self.cone.soc_coef[0, :, self._tri] = -0.5 * bound
        self.cone.soc_coef[3, :, self._tri] = 0.5 * bound
        self._h_soc[0, self._tri] = 0.5 + 0.5 * offset
        self._h_soc[3, self._tri] = 0.5 - 0.5 * offset
        return self.cone

    def screened(self, keep: np.ndarray) -> ConeProblem:
        """The restriction last built by `at`, holding only the distance
        blocks of the pairs where the boolean mask `keep` (one entry per
        pair, in program order) is true; every other row is kept. A copy:
        later calls to `at` leave it unchanged."""
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.shape != (self.n_pairs,):
            raise ValueError(f"keep must be a boolean mask of shape ({self.n_pairs},)")
        cone = self.cone
        blocks = np.concatenate([keep, np.ones(cone.n_soc - self.n_pairs, dtype=bool)])
        return ConeProblem(
            c=cone.c,
            h=np.concatenate([cone.h[: cone.n_nonneg], self._h_soc[:, blocks].ravel()]),
            nn_cols=cone.nn_cols,
            nn_coef=cone.nn_coef,
            # contiguous like the template's arrays, so that einsum sums in
            # the same order and every row equals the full cone's
            soc_cols=np.ascontiguousarray(cone.soc_cols[:, blocks]),
            soc_coef=np.ascontiguousarray(cone.soc_coef[:, :, blocks]),
            nonneg_families=cone.nonneg_families,
            soc_families=(Family.DISTANCE,) * int(keep.sum())
            + cone.soc_families[self.n_pairs:],
        )

    def distance_sq(self, z: np.ndarray) -> np.ndarray:
        """Squared distance at z of every distance pair, in program order."""
        z = _checked(z, self.layout.dim)
        x_i, x_j, y_i, y_j = z[self.cone.soc_cols[:4, : self.n_pairs]]
        return (x_j - x_i) ** 2 + (y_j - y_i) ** 2

    def evaluate(self, z: np.ndarray) -> EvaluationReport:
        """Program residuals g_i(z) - h_i(z), in cone row order, and the
        objective. Leaves the template linearized at z."""
        cone = self.at(z)
        return EvaluationReport(
            objective=float(-(cone.c @ z)),
            residuals=cone.residuals(z),
            families=cone.nonneg_families + cone.soc_families,
        )


def polygon_to_vector(polygon: Polygon) -> np.ndarray:
    """Pack a polygon into a decision vector, with u_i set to the exact fan
    triangle areas (tight for the triangle-area constraints)."""
    n = polygon.n
    layout = DecisionLayout(n)
    z = np.zeros(layout.dim)
    v = polygon.vertices
    z[: n - 1] = v[1:, 0]
    z[n - 1 : 2 * (n - 1)] = v[1:, 1]
    for i in range(1, n - 1):
        z[layout.u(i)] = (v[i + 1, 1] * v[i, 0] - v[i + 1, 0] * v[i, 1]) / 2.0
    return z


def vector_to_polygon(z: np.ndarray, n: int) -> Polygon:
    layout = DecisionLayout(n)
    z = np.asarray(z, dtype=float)
    if z.shape != (layout.dim,):
        raise DimensionMismatch(
            f"expected decision vector of shape ({layout.dim},), got {z.shape}"
        )
    v = np.zeros((n, 2))
    v[1:, 0] = z[: n - 1]
    v[1:, 1] = z[n - 1 : 2 * (n - 1)]
    return Polygon(v)
