"""Closed-form oracle of the n-gon program, written from the paper's formulas.

`restriction_residuals` and `fan_residuals` share no code with
`optigon.formulation.ConeTemplate`, whose arrays the tests check against
them; `mini_cone` builds the small cone problems that pin the solver to
analytic optima; `max_step` is the solver's step-length formula in its
first, case-by-case form, which its faster form must match bit for bit.
"""

from itertools import combinations

import numpy as np

from optigon.formulation import ConeProblem


def restriction_residuals(n, c, z):
    """Residual at z of every constraint of the restriction at reference
    point c, in the template's row order: y_i, u_i, 1 - |v_j - v_i|^2 for
    the pairs i < j in row-major order, 1 - |v_i|^2, then for each fan
    triangle the tangent of g = (y_{i+1} + x_i)^2 + (x_{i+1} - y_i)^2 at c
    minus h = (y_{i+1} - x_i)^2 + (x_{i+1} + y_i)^2 + 8 u_i. The program's
    residuals at z are restriction_residuals(n, z, z)."""
    x, y, u = np.split(np.asarray(z, dtype=float), [n - 1, 2 * n - 2])
    cx, cy, _ = np.split(np.asarray(c, dtype=float), [n - 1, 2 * n - 2])
    i, j = np.array(list(combinations(range(n - 1), 2))).T
    a, b = cy[1:] + cx[:-1], cx[1:] - cy[:-1]
    tangent = 2 * a * (y[1:] + x[:-1]) - a**2 + 2 * b * (x[1:] - y[:-1]) - b**2
    h = (y[1:] - x[:-1]) ** 2 + (x[1:] + y[:-1]) ** 2 + 8 * u
    distance = 1 - (x[j] - x[i]) ** 2 - (y[j] - y[i]) ** 2
    return np.concatenate([y, u, distance, 1 - x**2 - y**2, tangent - h])


def fan_residuals(n, z):
    """4 (y_{i+1} x_i - x_{i+1} y_i - 2 u_i): the triangle-area constraint
    as the paper states it, scaled like g - h."""
    x, y, u = np.split(np.asarray(z, dtype=float), [n - 1, 2 * n - 2])
    return 4.0 * (y[1:] * x[:-1] - x[1:] * y[:-1] - 2.0 * u)


def mini_cone(objective, halfplanes=(), ellipses=()):
    """Maximize objective . x subject to a . x + b >= 0 for each half-plane
    (a, b) and (s_0 (x_0 - c_0))^2 + (s_1 (x_1 - c_1))^2 <= 1 for each
    ellipse (s_0, s_1, c_0, c_1). Each constraint is one Q^4 block over every
    column: a half-plane is ((1 + beta)/2, 0, 0, (1 - beta)/2) with
    beta = a . x + b, the form of the triangle-area rows, and an ellipse is
    (1, l_0, l_1, 0)."""
    dim = len(objective)
    a = np.array([row for row, _ in halfplanes], dtype=float).reshape(-1, dim)
    b = np.array([offset for _, offset in halfplanes], dtype=float)
    s0, s1, c0, c1 = np.array(ellipses, dtype=float).reshape(-1, 4).T
    k, m = len(b), len(b) + len(s0)
    soc_coef = np.zeros((4, dim, m))
    soc_coef[0, :, :k], soc_coef[3, :, :k] = -0.5 * a.T, 0.5 * a.T
    if m > k:  # an ellipse needs two columns
        soc_coef[1, 0, k:], soc_coef[2, 1, k:] = -s0, -s1
    h_soc = np.stack([
        np.r_[0.5 + 0.5 * b, np.ones(len(s0))],
        np.r_[np.zeros(k), -s0 * c0],
        np.r_[np.zeros(k), -s1 * c1],
        np.r_[0.5 - 0.5 * b, np.zeros(len(s0))],
    ])
    return ConeProblem(
        c=-np.asarray(objective, dtype=float),
        h=h_soc.ravel(),
        nn_cols=np.zeros(0, dtype=np.intp),
        soc_cols=np.repeat(np.arange(dim)[:, None], m, axis=1),
        soc_coef=soc_coef,
    )


def _bdot(u, v):
    return np.add.reduce(u * v)


def _jdet(u):
    return 2.0 * u[0] ** 2 - _bdot(u, u)


def max_step(u_parts, dus):
    """Largest t with u + t*du inside R^p_+ x (Q^4)^m for every du in dus,
    with u and the directions laid out as `conic_solver._max_step` takes
    them. Each block's case (quadratic, linear with c1 < 0, or no root)
    fills its own masked entries of t, and a negative discriminant is
    masked before the square root."""
    u_nn, u_soc, c0 = u_parts
    p = len(u_nn) // len(dus)
    d_nn = np.concatenate([du[:p] for du in dus])
    d_soc = np.concatenate([du[p:].reshape(4, -1) for du in dus], axis=1)
    neg = d_nn < 0
    t_nn = (u_nn[neg] / -d_nn[neg]).min(initial=np.inf)
    # jdet(u + t du) = c0 + c1 t + c2 t^2 on each block
    c1 = 2.0 * (2.0 * u_soc[0] * d_soc[0] - _bdot(u_soc, d_soc))
    c2 = _jdet(d_soc)
    t = np.full(len(c0), np.inf)
    quad = np.abs(c2) > 1e-14 * (c0 + np.abs(c1) + 1.0)
    lin = ~quad & (c1 < 0)
    t[lin] = -c0[lin] / c1[lin]
    a, b, c = c2[quad], c1[quad], c0[quad]
    disc = b * b - 4.0 * a * c
    real = disc >= 0
    sq = np.sqrt(np.where(real, disc, 0.0))
    minus_b, two_a = -b, 2.0 * a
    r1 = np.where(real, (minus_b - sq) / two_a, np.inf)
    r2 = np.where(real, (minus_b + sq) / two_a, np.inf)
    t[quad] = np.minimum(np.where(r1 > 0, r1, np.inf), np.where(r2 > 0, r2, np.inf))
    return float(min(t_nn, t.min(initial=np.inf)))
