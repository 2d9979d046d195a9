"""Second-order-cone interior-point solver for the convex restrictions.

Solves a `ConeProblem` (one per solve, built by `formulation.ConeTemplate.at`)

    minimize c^T x   subject to   G x + s = h,   s in R^p_+ x (Q^4)^m.

The outer loop passes `ConeTemplate.at(z, keep)`, the restriction at z
holding only the distance blocks of the pairs near unit distance, and starts
the solve at z, which is feasible for it; each re-solve after the outer
loop's guard adds dropped pairs is one more call here.

Every block is Q^4, and G is held in fixed-shape arrays: coefficients of
shape (4, K, m) over K <= 5 columns per block, and the nonnegative rows,
each the sign row -x[col], as their columns alone. Between restrictions of
one n only the n-2 triangle-area blocks and the set of distance blocks
change. Cone vectors are flat with the second-order part viewed as a
(4, m) array, so the blockwise Jordan-algebra and scaling operations are
numpy expressions over all blocks; each writes its orthant and block parts
through views into one new output array.

Primal-dual method: Nesterov-Todd scaling per block, Mehrotra
predictor-corrector steps, and a dense Cholesky factorization of the reduced
KKT matrix H = G^T W^{-2} G, which one `_ReducedKkt` per solve assembles and
factors. Problem sizes here (dim <= 380, a few thousand blocks) make dense
reduced-KKT linear algebra adequate. No randomness anywhere: results are
deterministic.

The factorization and the solves call LAPACK's dpotrf/dpotrs through
ctypes, from the OpenBLAS that scipy's wheels bundle, or else from the file
of scipy's `_flapack` extension, whose dependencies supply them; neither
scipy.linalg nor the extension module is imported. ctypes releases the GIL
during each call. Importing this module sets the library the routines come
from to one thread for the whole process, since threaded dpotrf rounds
differently: results do not depend on the thread count.

One iteration is `_step`. It raises FloatingPointError on an iterate
outside the cone's interior, a reduced KKT matrix that is not finite or not
positive definite, a non-finite Newton right-hand side, or no interior
step; `_solve_inner` turns that error into NUMERICAL_FAILURE in one place
and keeps its message as the result's cause. Whatever the status, the
result is the iterate the loop stopped at.

Settings: `solve` takes the primal start and the tolerance tol_solver
(default TOL_SOLVER); the iteration cap is the constant MAX_ITERATIONS. At
DEBUG (`OPTIGON_LOG=debug`) the `optigon.solver` logger writes one line per
IPM iteration: primal and dual objective, gap, both residuals, and the step
length and sigma of the step that led there; a failed solve adds one line
naming the cause.
"""

from __future__ import annotations

import ctypes
import enum
import importlib.machinery
import importlib.util
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import LinAlgError  # scipy.linalg.LinAlgError is this class

from .formulation import ConeProblem, c_einsum
from .geometry import require_positive_real

__all__ = ["ConeProblem", "SolverResult", "SolverStatus", "solve"]

log = logging.getLogger("optigon.solver")

# fraction of the distance to the cone boundary taken by each step
STEP_FRACTION = 0.99
# initial diagonal shift of the reduced KKT matrix
REGULARIZATION = 1e-12
# interior-point iterations per solve before ITERATION_LIMIT
MAX_ITERATIONS = 200
# the default tolerance, tighter than the outer loop's stopping threshold
# so that subproblem noise cannot trigger the outer stopping test
TOL_SOLVER = 1e-9


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverResult:
    status: SolverStatus
    primal: np.ndarray
    objective: float
    max_primal_residual: float
    max_dual_residual: float
    duality_gap: float
    iterations: int
    cause: str = ""  # what ended a NUMERICAL_FAILURE solve


# ---------------------------------------------------------------------------
# Jordan algebra of R^p_+ x (Q^4)^m on flat cone vectors u: the orthant part
# is u[:p], and the blocks are the (4, m) view u[p:].reshape(4, m)

_REFLECT = np.array([[1.0], [-1.0], [-1.0], [-1.0]])  # J u = (u_0, -u_1)


def _bdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.add.reduce(u * v)


def _jdet(u: np.ndarray) -> np.ndarray:
    # u_0^2 - |u_1|^2 = 2 u_0^2 - u^T u
    return 2.0 * u[0] ** 2 - _bdot(u, u)


def _min_margin(v: np.ndarray, p: int) -> float:
    soc = v[p:].reshape(4, -1)
    # u_0 - |u_1| per block, positive iff strictly interior
    margins = soc[0] - np.sqrt(np.maximum(_bdot(soc, soc) - soc[0] ** 2, 0.0))
    return float(min(np.minimum.reduce(v[:p], initial=np.inf),
                     np.minimum.reduce(margins, initial=np.inf)))


def _identity(p: int, m: int) -> np.ndarray:
    return np.concatenate([np.ones(p), np.ones(m), np.zeros(3 * m)])


def _parts(u: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u's orthant part, its blocks as a (4, m) view, and _jdet of the blocks."""
    soc = u[p:].reshape(4, -1)
    return u[:p], soc, _jdet(soc)


def _tiled(parts: tuple, k: int) -> tuple:
    """k copies of each array of parts, side by side along its last axis."""
    return tuple(np.concatenate((a,) * k, axis=-1) for a in parts)


def _mul(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Jordan product: elementwise on the orthant, (u^T v, u_0 v_1 + v_0 u_1)
    on each block."""
    out = np.empty(len(u))
    np.multiply(u[:p], v[:p], out=out[:p])
    u_soc, v_soc = u[p:].reshape(4, -1), v[p:].reshape(4, -1)
    soc = np.multiply(u_soc[0], v_soc, out=out[p:].reshape(4, -1))
    soc += v_soc[0] * u_soc
    soc[0] = _bdot(u_soc, v_soc)
    return out


def _inv_mul(lam_parts: tuple, d: np.ndarray) -> np.ndarray:
    """The solution x of lam o x = d, for lam_parts = _parts(lam, p)."""
    lam_nn, lam_soc, lam_det = lam_parts
    p = len(lam_nn)
    out = np.empty(len(d))
    np.divide(d[:p], lam_nn, out=out[:p])
    d_soc = d[p:].reshape(lam_soc.shape)
    l0 = lam_soc[0]
    l0_d0 = l0 * d_soc[0]
    cross = _bdot(lam_soc, d_soc) - l0_d0
    x0 = (l0_d0 - cross) / lam_det
    soc = np.multiply(x0, lam_soc, out=out[p:].reshape(lam_soc.shape))
    np.subtract(d_soc, soc, out=soc)
    soc /= l0
    soc[0] = x0
    return out


def _require_positive(*arrays: np.ndarray) -> None:
    """Raise FloatingPointError unless every entry is positive; a NaN is not."""
    for a in arrays:
        if not np.minimum.reduce(a, initial=np.inf) > 0:
            raise FloatingPointError("cone iterate left the interior")


class _Scaling:
    """Nesterov-Todd scaling W at (s, z): W z = W^{-1} s = lam. Its products
    take and return flat cone vectors of p orthant rows and m blocks."""

    def __init__(self, s: np.ndarray, z: np.ndarray, p: int):
        self.p = p
        s_nn, s_soc = s[:p], s[p:].reshape(4, -1)
        z_nn, z_soc = z[:p], z[p:].reshape(4, -1)
        self.m = m = s_soc.shape[1]
        rs = _jdet(s_soc)
        rz = _jdet(z_soc)
        # before any division or sqrt; a block of -Q^4 has a positive jdet too
        _require_positive(s_nn, z_nn, s_soc[0], z_soc[0], rs, rz)
        sbar = s_soc / np.sqrt(rs)
        zbar = z_soc / np.sqrt(rz)
        gamma = np.sqrt((1.0 + _bdot(sbar, zbar)) / 2.0)
        self.w_nn = np.sqrt(s_nn / z_nn)
        self.wbar = (sbar + zbar * _REFLECT) / (2.0 * gamma)
        self.eta = (rs / rz) ** 0.25
        # reused by every product with W or W^{-2}
        self.v = self.wbar * _REFLECT
        self.two_v = 2.0 * self.v
        self.eta_sq = self.eta**2
        self.w_nn_sq = self.w_nn**2
        self._wbar0_plus_1 = 1.0 + self.wbar[0]
        self.lam = np.empty(len(s))
        np.sqrt(s_nn * z_nn, out=self.lam[:p])
        lam_soc = self._wbar_mul(zbar, self.lam[p:].reshape(4, m))
        lam_soc *= (rs * rz) ** 0.25
        # reused by lam^{-1} o d
        self.lam_parts = _parts(self.lam, p)
        # the divisors of _inv_mul; rounding can leave them at or below zero
        # when s and z are interior only to machine precision
        lam_nn, lam_soc, lam_det = self.lam_parts
        _require_positive(lam_nn, lam_soc[0], lam_det)
        # both _max_step calls of an iteration stack two directions
        self.lam_pair = _tiled(self.lam_parts, 2)

    def _wbar_mul(self, u: np.ndarray, out: np.ndarray) -> np.ndarray:
        w = self.wbar
        d = _bdot(w, u)
        u0 = u[0]
        coef = u0 + (d - w[0] * u0) / self._wbar0_plus_1
        np.multiply(coef, w, out=out)
        out += u
        out[0] = d
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """W u."""
        p, m = self.p, self.m
        out = np.empty(len(u))
        np.multiply(u[:p], self.w_nn, out=out[:p])
        soc = self._wbar_mul(u[p:].reshape(4, m), out[p:].reshape(4, m))
        soc *= self.eta
        return out

    def apply_inv_sq(self, u: np.ndarray) -> np.ndarray:
        """W^{-2} u; on a block (2 v v^T - J) u / eta^2 with v = J wbar."""
        p, m = self.p, self.m
        out = np.empty(len(u))
        np.divide(u[:p], self.w_nn_sq, out=out[:p])
        u_soc = u[p:].reshape(4, m)
        # (v^T u) (2 v) is (2 v^T u) v bit for bit: doubling is exact
        soc = np.multiply(_bdot(self.v, u_soc), self.two_v, out=out[p:].reshape(4, m))
        soc -= u_soc * _REFLECT
        soc /= self.eta_sq
        return out


def _max_step(u_parts: tuple, dus: tuple[np.ndarray, ...]) -> float:
    """Largest t with u + t*du inside the cone for every du in dus, for a
    strictly interior u given as u_parts = _tiled(_parts(u, p), len(dus)).
    The directions are stacked side by side in the same way, so one pass
    serves them all; each block's root is the one a single direction gives."""
    u_nn, u_soc, c0 = u_parts
    p = len(u_nn) // len(dus)
    d_nn = np.concatenate([du[:p] for du in dus])
    d_soc = np.concatenate([du[p:].reshape(4, -1) for du in dus], axis=1)
    neg = d_nn < 0
    t = np.minimum.reduce(u_nn[neg] / -d_nn[neg], initial=np.inf)
    # jdet(u + t du) = c0 + c1 t + c2 t^2 on each block
    c1 = 2.0 * (2.0 * u_soc[0] * d_soc[0] - _bdot(u_soc, d_soc))
    c2 = _jdet(d_soc)
    # c0 = jdet(u) is positive at an interior u, so it is its own |c0|
    quad = np.abs(c2) > 1e-14 * (c0 + np.abs(c1) + 1.0)
    if not np.logical_and.reduce(quad):
        # a block with c2 ~ 0 leaves the cone only if c1 < 0, at -c0 / c1
        lin = ~quad & (c1 < 0)
        if np.logical_or.reduce(lin):
            t = min(t, np.minimum.reduce(-c0[lin] / c1[lin]))
        c2, c1, c0 = c2[quad], c1[quad], c0[quad]
    minus_b, two_a = -c1, 2.0 * c2
    # a negative discriminant gives NaN roots, which fail the test > 0
    with np.errstate(invalid="ignore"):
        sq = np.sqrt(c1 * c1 - 4.0 * c2 * c0)
        roots = np.concatenate(((minus_b - sq) / two_a, (minus_b + sq) / two_a))
        return float(np.minimum.reduce(roots[roots > 0], initial=t))


# ---------------------------------------------------------------------------
# dense Cholesky through LAPACK

def _symbol(lib: ctypes.CDLL, name: str):
    """The function name of lib or its dependencies, with the prefix scipy's
    wheels give it or without; None if there is neither."""
    return getattr(lib, f"scipy_{name}", None) or getattr(lib, name, None)


def _load_lapack(libs: Path, linalg: Path):
    """LAPACK's dpotrf and dpotrs as ctypes functions, from the OpenBLAS that
    scipy's wheels bundle in libs, with scipy's symbol prefix or without it.
    If no bundled library has both, they come from the file of scipy's
    `_flapack` extension in linalg, scipy's linalg directory: ctypes opens
    it without running the module's init, and its dependencies supply the
    routines. Raises ImportError if neither place has them.

    scipy.linalg.lapack exports the same routines, but importing it loads all
    of scipy.linalg: `import optigon.cli` then takes 555 modules and 56.9 MB
    peak RSS, against 238 and 32.0 MB without it (Python 3.11, numpy 2.4,
    scipy 1.17). Running `_flapack`'s init alone still costs about 2 MB of a
    run's peak RSS.

    The library the routines come from is set to one thread for the whole
    process: its threaded dpotrf rounds differently from the serial one, so
    the iterates would depend on the number of cores. Unlike
    OPENBLAS_NUM_THREADS, the setter acts after the library has loaded. Logs
    a warning if the library has no setter, as with a scipy built against
    another BLAS."""
    paths = sorted(libs.glob("lib*openblas*.so"))
    paths += [linalg / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    for path in filter(Path.is_file, paths):
        lib = ctypes.CDLL(str(path))
        routines = [_symbol(lib, "dpotrf_"), _symbol(lib, "dpotrs_")]
        if None not in routines:
            set_threads = _symbol(lib, "openblas_set_num_threads")
            if set_threads is None:
                log.warning("no OpenBLAS thread setter in %s: results may depend on its "
                            "thread count", path)
            else:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)
            # every argument by reference, then uplo's hidden length
            for routine, pointers in zip(routines, (5, 8)):
                routine.argtypes = [ctypes.c_void_p] * pointers + [ctypes.c_size_t]
                routine.restype = None
            return routines
    raise ImportError(f"LAPACK's dpotrf and dpotrs are in no OpenBLAS bundled in {libs} "
                      f"and not in scipy's _flapack extension in {linalg}")


_SCIPY = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])
dpotrf, dpotrs = _load_lapack(_SCIPY.parent / "scipy.libs", _SCIPY / "linalg")
# the arguments every call passes alike: uplo "L", nrhs 1 and uplo's length
_LOWER = ctypes.byref(ctypes.c_char(b"L"))
_ONE = ctypes.byref(ctypes.c_int(1))
_UPLO_LEN = ctypes.c_size_t(1)


def _require_fortran_matrix(a: np.ndarray) -> None:
    """ValueError unless a is a writable Fortran-ordered float64 square
    matrix: LAPACK would read a C-ordered one as its transpose, and ctypes
    reads and writes dim x dim doubles at a's address whatever a is."""
    shape, flags = a.shape, a.flags
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"expected a square matrix, got shape {shape}")
    if not (a.dtype == np.float64 and flags.f_contiguous and flags.writeable):
        raise ValueError("expected a writable Fortran-ordered float64 matrix")


def _data(a: np.ndarray):
    """A reference to the data of a, a writable Fortran-ordered float64
    array: a.T, the same memory, is C-ordered, as from_buffer requires."""
    return ctypes.byref(ctypes.c_char.from_buffer(a.T))


def _check(routine, info: ctypes.c_int) -> None:
    """LinAlgError unless the info that routine returned is 0."""
    if info.value != 0:
        raise LinAlgError(f"{routine.__name__} returned info={info.value}")


def cho_factor(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of the symmetric matrix whose lower triangle is a's.

    a, a writable Fortran-ordered float64 square matrix, is factored in
    place: the factor is its lower triangle, and the strict upper triangle
    is left as it was. Raises LinAlgError if the matrix is not positive
    definite, and ValueError on any other a. ctypes releases the GIL while
    dpotrf runs.
    """
    _require_fortran_matrix(a)
    dim, info = ctypes.byref(ctypes.c_int(len(a))), ctypes.c_int()
    dpotrf(_LOWER, dim, _data(a), dim, ctypes.byref(info), _UPLO_LEN)
    _check(dpotrf, info)
    return a


def cho_solve(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of A x = b, a new vector, for c = cho_factor(A) and a
    vector b. Raises FloatingPointError on a non-finite b, and ValueError
    unless c is a writable Fortran-ordered float64 square matrix and b has
    its length. ctypes releases the GIL while dpotrs runs."""
    if not np.logical_and.reduce(np.isfinite(b)):
        raise FloatingPointError("right-hand side is not finite")
    _require_fortran_matrix(c)
    if b.shape != (len(c),):
        raise ValueError(f"expected a right-hand side of shape {(len(c),)}, got {b.shape}")
    x = b.astype(np.float64)
    dim, info = ctypes.byref(ctypes.c_int(len(c))), ctypes.c_int()
    dpotrs(_LOWER, dim, _ONE, _data(c), dim, _data(x), dim, ctypes.byref(info), _UPLO_LEN)
    _check(dpotrs, info)
    return x


class _ReducedKkt:
    """The reduced KKT matrix G^T M G of one cone, for one solve.

    Its pattern, the entries (i, j) where the matrix can be nonzero, follows
    from the cone's columns alone and is found once. Each assembly sums the
    per-block K x K pieces into those entries alone. Each factorization
    forms 0.5 (H + H^T) on the upper triangle and scatters it into one
    zeroed C-ordered dim x dim buffer. Its transpose, the same memory in
    Fortran order with the matrix in the lower triangle that dpotrf reads,
    is factored in place without a copy. The pattern's dim x dim scratch is
    freed before the buffer is allocated, which then reuses its memory.
    """

    def __init__(self, cone: ConeProblem):
        self.cone = cone
        dim = cone.dim
        cols = cone.soc_cols
        # one term per nonnegative row, then one per slot pair (k, l) of
        # every block, in `assemble`'s order
        flat = np.concatenate([cone.nn_cols * (dim + 1),
                               (cols[:, None, :] * dim + cols[None, :, :]).ravel()])
        # a dense marker instead of np.unique: the first integer sort of a
        # process pages in about 0.7 MB of numpy's sort kernels
        present = np.zeros(dim * dim, dtype=bool)
        present[flat] = True
        entries = np.flatnonzero(present)  # sorted flat indices i dim + j
        position = np.empty(dim * dim, dtype=np.intp)  # of each flat index in entries
        position[entries] = np.arange(len(entries))
        row, col = np.divmod(entries, dim)
        self.n_entries = len(entries)
        self.slot_entry = position[flat]  # the entry each term adds into
        self.upper = np.flatnonzero(row <= col)
        self.mirror = position[col[self.upper] * dim + row[self.upper]]  # of (j, i)
        self.upper_flat = entries[self.upper]
        # the dim x dim scratch goes before the buffer, which reuses its memory
        del flat, present, entries, position, row, col
        # one buffer for every factorization of the solve, which saves the
        # page faults of a fresh dim x dim array per iteration
        self.buffer = np.empty((dim, dim))

    def assemble(self, d: np.ndarray, v: np.ndarray | None = None,
                 beta: np.ndarray | None = None) -> np.ndarray:
        """G^T M G at the pattern's entries, for M = diag(d), plus
        beta_b v_b v_b^T on each block b when v (shape (4, m)) and beta
        (shape (m,)) are given. Each entry sums its slot-pair terms in slot
        order, as a dense bincount over the same terms would; a sign row's
        term is d_r = (-1) d_r (-1) on its column's diagonal."""
        cone = self.cone
        p = cone.n_nonneg
        A = cone.soc_coef
        soc = c_einsum("jkb,jlb->klb", A * d[p:].reshape(4, 1, -1), A)
        if v is not None:
            u = c_einsum("jkb,jb->kb", A, v)
            soc += (beta * u)[:, None, :] * u[None, :, :]
        return np.bincount(self.slot_entry, np.concatenate([d[:p], soc.ravel()]),
                           minlength=self.n_entries)

    def _scatter(self, upper: np.ndarray) -> None:
        """Zero the buffer and write upper at the pattern's upper-triangle
        entries."""
        self.buffer.fill(0.0)
        self.buffer.ravel()[self.upper_flat] = upper

    def factor(self, H: np.ndarray) -> np.ndarray:
        """Cholesky factor of 0.5 (H + H^T) + reg I for the first reg of
        REGULARIZATION, 100 REGULARIZATION, ... <= 1e-6 that makes it positive
        definite; FloatingPointError if none does or H is not finite. H is
        given by its values at the pattern's entries; the matrix is
        symmetrized and checked on the triangle dpotrf reads only."""
        upper = H[self.upper]
        upper += H[self.mirror]
        upper *= 0.5
        if not np.logical_and.reduce(np.isfinite(upper)):
            raise FloatingPointError("reduced KKT matrix is not finite")
        diagonal = self.buffer.ravel()[:: len(self.buffer) + 1]
        reg = REGULARIZATION
        while reg <= 1e-6:
            self._scatter(upper)
            diagonal += reg
            try:
                return cho_factor(self.buffer.T)
            except LinAlgError:
                reg *= 100.0
        raise FloatingPointError("reduced KKT matrix is not positive definite")

    def start_factor(self) -> np.ndarray:
        """Cholesky factor of G^T G, shifted by 1e-12 times its mean
        diagonal entry (at least 1e-12)."""
        # bincount sums G^T G's (i, j) and (j, i) terms in slot order, which
        # need not agree bit for bit, so its own lower triangle is factored:
        # the mirror of each upper entry of the buffer is a lower entry of G^T G
        self._scatter(self.assemble(np.ones(self.cone.n_rows))[self.mirror])
        buffer = self.buffer
        n = len(buffer)
        buffer.flat[:: n + 1] += 1e-12 * max(1.0, np.trace(buffer) / max(n, 1))
        return cho_factor(buffer.T)


# ---------------------------------------------------------------------------
# main solver

def solve(cone: ConeProblem, start: np.ndarray, tol_solver: float = TOL_SOLVER) -> SolverResult:
    """Solve the cone problem to duality-gap-certified optimality, starting
    from the primal point start, a vector of shape (cone.dim,).

    On OPTIMAL the primal vector satisfies every constraint within
    tol_solver and the reported objective is within the duality gap of the
    true optimum. Every breakdown ends NUMERICAL_FAILURE; then, and on
    ITERATION_LIMIT, the result is the iterate the loop stopped at. A failed
    solve is not retried. Deterministic for fixed inputs. Raises ValueError
    unless tol_solver is a finite positive real number and start has that
    shape.
    """
    require_positive_real("tol_solver", tol_solver)
    return _solve_inner(cone, start, tol_solver)


def _solve_inner(cone: ConeProblem, start: np.ndarray, tol_solver: float):
    p = cone.n_nonneg
    h = cone.h
    c = cone.c

    kkt = _ReducedKkt(cone)
    # the cone's identity, the central ray of the start and of each step
    e = _identity(p, cone.n_soc)
    x, s, z = _initial_point(kkt, start, e)

    h_scale = max(1.0, np.abs(h).max(initial=0.0))
    c_scale = max(1.0, np.abs(c).max(initial=0.0))
    minus_h = -h

    alpha = sigma = 0.0
    cause = ""
    for iteration in range(MAX_ITERATIONS + 1):
        r_x = cone.rmatvec(z) + c
        r_z = cone.matvec(x) + s - h
        gap = float(s @ z)
        pobj_min = float(c @ x)
        dobj_min = float(minus_h @ z)
        pres = float(np.maximum.reduce(np.abs(r_z), initial=0.0) / h_scale)
        dual = float(np.maximum.reduce(np.abs(r_x)))
        dres = dual / c_scale

        log.debug(
            "ipm %3d: pobj=%+.12e dobj=%+.12e gap=%.3e pres=%.3e dres=%.3e "
            "step=%.4f sigma=%.4f",
            iteration, -pobj_min, -dobj_min, gap, pres, dres, alpha, sigma,
        )

        if max(pres, dres, gap / max(1.0, abs(pobj_min))) <= tol_solver:
            status = SolverStatus.OPTIMAL
            break
        if iteration == MAX_ITERATIONS:
            status = SolverStatus.ITERATION_LIMIT
            break
        try:
            x, s, z, alpha, sigma = _step(kkt, e, x, s, z, r_x, r_z, gap)
        except FloatingPointError as exc:
            cause = str(exc)
            log.debug("ipm %3d: %s", iteration, cause)
            status = SolverStatus.NUMERICAL_FAILURE
            break

    return SolverResult(
        status=status,
        primal=x,
        objective=-pobj_min,
        max_primal_residual=max(0.0, -_min_margin(h - cone.matvec(x), p)),
        max_dual_residual=dual,
        duality_gap=gap,
        iterations=iteration,
        cause=cause,
    )


def _step(kkt: _ReducedKkt, e, x, s, z, r_x, r_z, gap: float):
    """One predictor-corrector step on kkt's cone from (x, s, z), whose
    residuals are r_x = G^T z + c and r_z = G x + s - h and whose gap is
    s^T z, for the cone's identity e: the next, strictly interior iterate,
    the step length and sigma. Raises FloatingPointError if the scaling, the
    KKT factor, a Newton solve or an interior step fails."""
    cone = kkt.cone
    p = cone.n_nonneg
    mu = gap / max(p + cone.n_soc, 1)
    W = _Scaling(s, z, p)

    # reduced KKT matrix H = G^T W^{-2} G (+ regularization)
    inv_eta2 = W.eta**-2
    d = np.concatenate([z[:p] / s[:p], (-_REFLECT * inv_eta2).ravel()])
    factor = kkt.factor(kkt.assemble(d, W.v, 2.0 * inv_eta2))

    def newton_base(bx, bz, ds_rhs):
        """The direction (dx, ds, dz, dst, dzt) and G dx."""
        dt = _inv_mul(W.lam_parts, ds_rhs)
        t = bz - W.apply(dt)
        dx = cho_solve(factor, bx + cone.rmatvec(W.apply_inv_sq(t)))
        g_dx = cone.matvec(dx)
        dz = W.apply_inv_sq(g_dx - t)
        dzt = W.apply(dz)
        dst = dt - dzt
        return (dx, W.apply(dst), dz, dst, dzt), g_dx

    def newton(bx, bz, ds_rhs):
        # the rhs -> direction map is linear, so iterative refinement is
        # re-solving with the residual rhs; each pass gains a factor of
        # roughly cond(H)*eps, so the deep endgame (per-block
        # complementarity near 1e-13) needs several passes
        direction, g_dx = newton_base(bx, bz, ds_rhs)
        kept = None
        for _ in range(8):
            dx, ds, dz, dst, dzt = direction
            e1 = bx - cone.rmatvec(dz)
            # G dx of the base solve; a refined dx needs its own product
            e2 = bz - ((cone.matvec(dx) if g_dx is None else g_dx) + ds)
            g_dx = None
            e3 = ds_rhs - _mul(W.lam, dst + dzt, p)
            err = np.maximum.reduce(np.abs(np.concatenate((e1, e2, e3))))
            improved = kept is None or err < kept[0]
            if improved:
                kept = (err, direction)
            if err <= 1e-13 * (1.0 + gap) or not improved:
                break
            (cx, cs_, cz, cst, czt), _ = newton_base(e1, e2, e3)
            direction = (dx + cx, ds + cs_, dz + cz, dst + cst, dzt + czt)
        return kept[1]

    # predictor (affine scaling) direction
    lam_sq = _mul(W.lam, W.lam, p)
    dx_a, ds_a, dz_a, dst_a, dzt_a = newton(-r_x, -r_z, -lam_sq)
    alpha_aff = min(1.0, _max_step(W.lam_pair, (dst_a, dzt_a)))
    gap_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a))
    sigma = min(1.0, max(0.0, gap_aff / gap) ** 3) if gap > 0 else 0.0

    # combined predictor-corrector direction
    ds_rhs = sigma * mu * e - lam_sq - _mul(dst_a, dzt_a, p)
    # free what only the predictor needed, which lowers peak memory
    del d, lam_sq, dx_a, ds_a, dz_a, dst_a, dzt_a
    dx, ds, dz, dst, dzt = newton(-r_x, -r_z, ds_rhs)

    # the longest step, shrunk until rounding leaves the iterate interior
    alpha = min(1.0, STEP_FRACTION * _max_step(W.lam_pair, (dst, dzt)))
    for _ in range(30):
        if alpha <= 1e-13:
            break
        s_new = s + alpha * ds
        z_new = z + alpha * dz
        if _min_margin(s_new, p) > 0 and _min_margin(z_new, p) > 0:
            return x + alpha * dx, s_new, z_new, alpha, sigma
        alpha *= 0.7
    raise FloatingPointError("no interior step")


def _initial_point(kkt: _ReducedKkt, start: np.ndarray, e: np.ndarray):
    """The primal start on kkt's cone with its slack blended toward the
    cone's central ray e, its identity, and the least-squares dual, each
    pushed strictly inside the cone. Raises ValueError unless start has
    shape (cone.dim,)."""
    cone = kkt.cone
    h, c, p = cone.h, cone.c, cone.n_nonneg
    n = cone.dim
    x = np.asarray(start, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"start must have shape ({n},), got {x.shape}")

    def push(v, target):
        margin = _min_margin(v, p)
        if margin < target:
            return v + (target - margin) * e
        return v

    # shift toward the cone's central ray, then enforce an interior margin
    s = push(0.99 * (h - cone.matvec(x)) + 0.01 * e, 1e-4)

    z = cone.matvec(cho_solve(kkt.start_factor(), -c))
    z = push(z, 1.0) if _min_margin(z, p) <= 1e-10 else z
    return x, s, z
