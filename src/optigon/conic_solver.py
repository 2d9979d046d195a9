"""Second-order-cone interior-point solver for the convex restrictions.

Solves a `ConeProblem` (built once per n by `formulation.ConeTemplate`, or
by `formulation.lift` from a restriction object)

    minimize c^T x   subject to   G x + s = h,   s in R^p_+ x (Q^4)^m.

Every block is Q^4, and G is held in fixed-shape arrays: coefficients of
shape (4, K, m) over K <= 5 columns per block, nonnegative rows as
index/coefficient vectors. Between restrictions of one n only the n-2
triangle-area blocks change, never the column pattern. Cone vectors are
flat with the second-order part viewed as a (4, m) array, so the blockwise
Jordan-algebra and scaling operations are numpy expressions over all blocks.

Primal-dual method: Nesterov-Todd scaling per block, Mehrotra
predictor-corrector steps, and a dense Cholesky factorization of the reduced
KKT matrix G^T W^{-2} G, scattered from per-block K x K pieces through flat
indices fixed by the column pattern. Problem sizes here (dim <= 380, a few
thousand blocks) make dense reduced-KKT linear algebra adequate. No
randomness anywhere: results are deterministic.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .formulation import ConeProblem, lift

__all__ = ["ConeProblem", "SolverConfig", "SolverResult", "SolverStatus", "lift", "solve"]

log = logging.getLogger("optigon.solver")


class SolverStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    ITERATION_LIMIT = "iteration_limit"
    NUMERICAL_FAILURE = "numerical_failure"


@dataclass
class SolverConfig:
    """Interior-point controls.

    tol_solver is deliberately tighter than the outer loop's stopping
    threshold so subproblem noise cannot trigger the outer stopping test.
    """

    tol_solver: float = 1e-9
    max_iterations: int = 200
    step_fraction: float = 0.99
    regularization: float = 1e-12
    record_trace: bool = False

    def validate(self) -> None:
        if not self.tol_solver > 0:
            raise ValueError("tol_solver must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not 0.0 < self.step_fraction < 1.0:
            raise ValueError("step_fraction must lie in (0, 1)")


@dataclass
class SolverResult:
    status: SolverStatus
    primal: np.ndarray
    objective: float
    max_primal_residual: float
    max_dual_residual: float
    duality_gap: float
    iterations: int
    trace: tuple[str, ...] = ()

    @property
    def optimal(self) -> bool:
        return self.status is SolverStatus.OPTIMAL


# ---------------------------------------------------------------------------
# Jordan algebra of R^p_+ x (Q^4)^m on flat cone vectors

_REFLECT = np.array([[1.0], [-1.0], [-1.0], [-1.0]])  # J u = (u_0, -u_1)


def _split(v: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    return v[:p], v[p:].reshape(4, -1)


def _join(nn: np.ndarray, soc: np.ndarray) -> np.ndarray:
    return np.concatenate([nn, soc.ravel()])


def _bdot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("jb,jb->b", u, v)


def _jdet(u: np.ndarray) -> np.ndarray:
    # u_0^2 - |u_1|^2 = 2 u_0^2 - u^T u
    return 2.0 * u[0] ** 2 - _bdot(u, u)


def _margins(u: np.ndarray) -> np.ndarray:
    # u_0 - |u_1| per block, positive iff strictly interior
    return u[0] - np.sqrt(np.maximum(_bdot(u, u) - u[0] ** 2, 0.0))


def _min_margin(v: np.ndarray, p: int) -> float:
    nn, soc = _split(v, p)
    return float(min(nn.min(initial=np.inf), _margins(soc).min(initial=np.inf)))


def _identity(p: int, m: int) -> np.ndarray:
    return np.concatenate([np.ones(p), np.ones(m), np.zeros(3 * m)])


def _mul(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Jordan product: elementwise on the orthant, (u^T v, u_0 v_1 + v_0 u_1)
    on each block."""
    u_nn, u_soc = _split(u, p)
    v_nn, v_soc = _split(v, p)
    soc = u_soc[0] * v_soc + v_soc[0] * u_soc
    soc[0] = _bdot(u_soc, v_soc)
    return _join(u_nn * v_nn, soc)


def _inv_mul(lam: np.ndarray, d: np.ndarray, p: int) -> np.ndarray:
    """The solution x of lam o x = d."""
    lam_nn, lam_soc = _split(lam, p)
    d_nn, d_soc = _split(d, p)
    l0 = lam_soc[0]
    d0 = d_soc[0]
    cross = _bdot(lam_soc, d_soc) - l0 * d0
    x0 = (l0 * d0 - cross) / _jdet(lam_soc)
    soc = (d_soc - x0 * lam_soc) / l0
    soc[0] = x0
    return _join(d_nn / lam_nn, soc)


class _Scaling:
    """Nesterov-Todd scaling W at (s, z): W z = W^{-1} s = lam."""

    def __init__(self, s: np.ndarray, z: np.ndarray, p: int):
        self.p = p
        s_nn, s_soc = _split(s, p)
        z_nn, z_soc = _split(z, p)
        rs = _jdet(s_soc)
        rz = _jdet(z_soc)
        if (rs <= 0).any() or (rz <= 0).any():
            raise FloatingPointError("cone iterate left the interior")
        sbar = s_soc / np.sqrt(rs)
        zbar = z_soc / np.sqrt(rz)
        gamma = np.sqrt((1.0 + _bdot(sbar, zbar)) / 2.0)
        self.w_nn = np.sqrt(s_nn / z_nn)
        self.wbar = (sbar + zbar * _REFLECT) / (2.0 * gamma)
        self.eta = (rs / rz) ** 0.25
        lam_soc = (rs * rz) ** 0.25 * self._wbar_mul(zbar)
        self.lam = _join(np.sqrt(s_nn * z_nn), lam_soc)

    def _wbar_mul(self, u: np.ndarray) -> np.ndarray:
        w = self.wbar
        d = _bdot(w, u)
        w0 = w[0]
        u0 = u[0]
        coef = u0 + (d - w0 * u0) / (1.0 + w0)
        out = u + coef * w
        out[0] = d
        return out

    def apply(self, u: np.ndarray, inverse: bool = False) -> np.ndarray:
        """W u, or W^{-1} u."""
        nn, soc = _split(u, self.p)
        if inverse:
            soc = self._wbar_mul(soc * _REFLECT) * _REFLECT / self.eta
            return _join(nn / self.w_nn, soc)
        return _join(nn * self.w_nn, self._wbar_mul(soc) * self.eta)

    def apply_inv_sq(self, u: np.ndarray) -> np.ndarray:
        """W^{-2} u; on a block (2 v v^T - J) u / eta^2 with v = J wbar."""
        nn, soc = _split(u, self.p)
        v = self.wbar * _REFLECT
        soc = (2.0 * _bdot(v, soc) * v - soc * _REFLECT) / self.eta**2
        return _join(nn / self.w_nn**2, soc)


def _max_step(u: np.ndarray, du: np.ndarray, p: int) -> float:
    """Largest t with u + t*du inside the cone (u strictly interior)."""
    u_nn, u_soc = _split(u, p)
    d_nn, d_soc = _split(du, p)
    neg = d_nn < 0
    t_nn = (u_nn[neg] / -d_nn[neg]).min(initial=np.inf)
    # jdet(u + t du) = c0 + c1 t + c2 t^2 on each block
    c0 = _jdet(u_soc)
    c1 = 2.0 * (2.0 * u_soc[0] * d_soc[0] - _bdot(u_soc, d_soc))
    c2 = _jdet(d_soc)
    t = np.full(len(c0), np.inf)
    quad = np.abs(c2) > 1e-14 * (np.abs(c0) + np.abs(c1) + 1.0)
    lin = ~quad & (c1 < 0)
    t[lin] = -c0[lin] / c1[lin]
    a, b, c = c2[quad], c1[quad], c0[quad]
    disc = b * b - 4.0 * a * c
    real = disc >= 0
    sq = np.sqrt(np.where(real, disc, 0.0))
    r1 = np.where(real, (-b - sq) / (2.0 * a), np.inf)
    r2 = np.where(real, (-b + sq) / (2.0 * a), np.inf)
    t[quad] = np.minimum(np.where(r1 > 0, r1, np.inf), np.where(r2 > 0, r2, np.inf))
    return float(min(t_nn, t.min(initial=np.inf)))


# ---------------------------------------------------------------------------
# main solver

def solve(
    cone: ConeProblem,
    cfg: SolverConfig | None = None,
    warm_start: np.ndarray | None = None,
) -> SolverResult:
    """Solve the cone problem to duality-gap-certified optimality.

    On OPTIMAL the primal vector satisfies every constraint within
    tol_solver and the reported objective is within the duality gap of the
    true optimum. On ITERATION_LIMIT the best iterate seen is returned with
    its residuals. Deterministic for fixed inputs.
    """
    cfg = cfg or SolverConfig()
    cfg.validate()
    result = _solve_inner(cone, cfg, warm_start)
    if warm_start is not None and result.status is not SolverStatus.OPTIMAL:
        log.debug("warm-started solve failed (%s); retrying cold", result.status)
        result = _solve_inner(cone, cfg, None)
    return result


def _solve_inner(cone: ConeProblem, cfg: SolverConfig, warm_start):
    n = cone.dim
    p = cone.n_nonneg
    h = cone.h
    c = cone.c
    degree = max(p + cone.n_soc, 1)
    e = _identity(p, cone.n_soc)

    x, s, z = _initial_point(cone, warm_start)

    h_scale = max(1.0, np.abs(h).max(initial=0.0))
    c_scale = max(1.0, np.abs(c).max(initial=0.0))

    best = None
    trace: list[str] = []
    if cfg.record_trace:
        trace.append("iter,primal_objective,dual_objective,gap,primal_residual,dual_residual,step,sigma")

    status = SolverStatus.ITERATION_LIMIT
    iters = 0
    alpha = 0.0
    sigma = 0.0
    for iteration in range(cfg.max_iterations + 1):
        r_x = cone.rmatvec(z) + c
        r_z = cone.matvec(x) + s - h
        gap = float(s @ z)
        pobj_min = float(c @ x)
        dobj_min = float(-h @ z)
        pres = float(np.abs(r_z).max(initial=0.0) / h_scale)
        dres = float(np.abs(r_x).max() / c_scale)
        mu = gap / degree

        if __debug__:
            # gap accounting: pobj - dobj = gap + r_x.x - z.r_z identically
            lhs = pobj_min - dobj_min
            rhs = gap + float(r_x @ x) - float(z @ r_z)
            assert abs(lhs - rhs) <= 1e-7 * (1.0 + abs(lhs) + abs(rhs))

        if cfg.record_trace:
            trace.append(
                f"{iteration},{-pobj_min:.15e},{-dobj_min:.15e},{gap:.6e},"
                f"{pres:.6e},{dres:.6e},{alpha:.4f},{sigma:.4f}"
            )
        log.debug(
            "ipm %3d: pobj=%+.12e gap=%.3e pres=%.3e dres=%.3e",
            iteration, -pobj_min, gap, pres, dres,
        )

        score = max(pres, dres, gap / max(1.0, abs(pobj_min)))
        if best is None or score < best[0]:
            best = (score, x.copy(), s.copy(), z.copy(), pres, dres, gap, pobj_min)

        iters = iteration
        if pres <= cfg.tol_solver and dres <= cfg.tol_solver and gap <= cfg.tol_solver * max(
            1.0, abs(pobj_min)
        ):
            status = SolverStatus.OPTIMAL
            break
        if iteration == cfg.max_iterations:
            status = SolverStatus.ITERATION_LIMIT
            break

        try:
            W = _Scaling(s, z, p)
        except FloatingPointError:
            status = SolverStatus.NUMERICAL_FAILURE
            break

        # reduced KKT matrix H = G^T W^{-2} G (+ regularization)
        inv_eta2 = W.eta**-2
        d = _join(z[:p] / s[:p], -_REFLECT * inv_eta2)
        H = cone.gram(d, W.wbar * _REFLECT, 2.0 * inv_eta2)
        H = 0.5 * (H + H.T)

        factor = None
        reg = cfg.regularization
        while reg <= 1e-6:
            try:
                factor = cho_factor(H + reg * np.eye(n), lower=True)
                break
            except LinAlgError:
                reg *= 100.0
        if factor is None:
            status = SolverStatus.NUMERICAL_FAILURE
            break

        def newton_base(bx, bz, ds_rhs):
            dt = _inv_mul(W.lam, ds_rhs, p)
            t = bz - W.apply(dt)
            dx = cho_solve(factor, bx + cone.rmatvec(W.apply_inv_sq(t)))
            dz = W.apply_inv_sq(cone.matvec(dx) - t)
            dzt = W.apply(dz)
            dst = dt - dzt
            return dx, W.apply(dst), dz, dst, dzt

        def newton(bx, bz, ds_rhs):
            # the rhs -> direction map is linear, so iterative refinement is
            # re-solving with the residual rhs; each pass gains a factor of
            # roughly cond(H)*eps, so the deep endgame (per-block
            # complementarity near 1e-13) needs several passes
            direction = newton_base(bx, bz, ds_rhs)
            best = None
            for _ in range(8):
                dx, ds, dz, dst, dzt = direction
                e1 = bx - cone.rmatvec(dz)
                e2 = bz - (cone.matvec(dx) + ds)
                e3 = ds_rhs - _mul(W.lam, dst + dzt, p)
                err = max(np.abs(e1).max(), np.abs(e2).max(initial=0.0), np.abs(e3).max(initial=0.0))
                improved = best is None or err < best[0]
                if improved:
                    best = (err, direction)
                if err <= 1e-13 * (1.0 + gap) or not improved:
                    break
                cx, cs_, cz, cst, czt = newton_base(e1, e2, e3)
                direction = (dx + cx, ds + cs_, dz + cz, dst + cst, dzt + czt)
            return best[1]

        def max_step(dst, dzt):
            return min(_max_step(W.lam, dst, p), _max_step(W.lam, dzt, p))

        # predictor (affine scaling) direction
        lam_sq = _mul(W.lam, W.lam, p)
        dx_a, ds_a, dz_a, dst_a, dzt_a = newton(-r_x, -r_z, -lam_sq)
        alpha_aff = min(1.0, max_step(dst_a, dzt_a))
        gap_aff = float((s + alpha_aff * ds_a) @ (z + alpha_aff * dz_a))
        sigma = min(1.0, max(0.0, gap_aff / gap) ** 3) if gap > 0 else 0.0

        # combined predictor-corrector direction
        ds_rhs = sigma * mu * e - lam_sq - _mul(dst_a, dzt_a, p)
        dx, ds, dz, dst, dzt = newton(-r_x, -r_z, ds_rhs)

        alpha = min(1.0, cfg.step_fraction * max_step(dst, dzt))
        if alpha <= 1e-13:
            status = SolverStatus.NUMERICAL_FAILURE
            break

        # keep the iterate strictly interior under floating-point rounding
        for _ in range(30):
            s_new = s + alpha * ds
            z_new = z + alpha * dz
            if _min_margin(s_new, p) > 0 and _min_margin(z_new, p) > 0:
                break
            alpha *= 0.7
        else:
            status = SolverStatus.NUMERICAL_FAILURE
            break

        x = x + alpha * dx
        s = s_new
        z = z_new

    score, bx_, bs_, bz_, pres, dres, gap, pobj_min = best
    if status is not SolverStatus.OPTIMAL:
        x, s, z = bx_, bs_, bz_
    return SolverResult(
        status=status,
        primal=x,
        objective=float(-(c @ x)),
        max_primal_residual=max(0.0, -_min_margin(h - cone.matvec(x), p)),
        max_dual_residual=float(np.abs(cone.rmatvec(z) + c).max()),
        duality_gap=gap,
        iterations=iters,
        trace=tuple(trace),
    )


def _initial_point(cone: ConeProblem, warm_start):
    """Least-squares start pushed strictly inside the cone, or a blend of
    the warm-start point with the cone's central ray."""
    h, c, p = cone.h, cone.c, cone.n_nonneg
    n = cone.dim
    e = _identity(p, cone.n_soc)

    GtG = cone.gram(np.ones(cone.n_rows))
    GtG += 1e-12 * max(1.0, np.trace(GtG) / max(n, 1)) * np.eye(n)
    factor = cho_factor(GtG, lower=True)

    def push(v, target):
        margin = _min_margin(v, p)
        if margin < target:
            return v + (target - margin) * e
        return v

    if warm_start is not None:
        x = np.asarray(warm_start, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"warm start must have shape ({n},), got {x.shape}")
        # shift toward the cone's central ray, then enforce an interior margin
        s = push(0.99 * (h - cone.matvec(x)) + 0.01 * e, 1e-4)
    else:
        x = cho_solve(factor, cone.rmatvec(h))
        s = h - cone.matvec(x)
        s = push(s, 1.0) if _min_margin(s, p) <= 1e-10 else s

    z = cone.matvec(cho_solve(factor, -c))
    z = push(z, 1.0) if _min_margin(z, p) <= 1e-10 else z
    return x, s, z
