"""Reference values computed apart from psgroupoid.

Every function here is written from the mathematics, not from the
package's code: closed forms for the quantum plane phi = x1*x2 and for
phi = sin(x1) + 2, the group exponentials of su(2), so(3) and the
Heisenberg group, the cubic radial profile f(R) = R/(1 + (R-1)^3), and a
Gauss-law residual on the package's grid convention. ``test_refs.py``
checks each of them against an independent computation.
"""

from __future__ import annotations

import math

import numpy as np

BOX = (-10.0, 10.0, -10.0, 10.0)


def in_box(x, box=BOX) -> bool:
    return box[0] < x[0] < box[1] and box[2] < x[1] < box[3]


# ---------------------------------------------------------------------------
# Quantum plane phi = x1*x2. Along the ray t -> (x, t pi) the cocycle is
# h(t) = (1 - t x2 pi2)(1 + t x1 pi1), a product of two linear factors, and
# x_f(t) runs along a straight segment, so membership is decided exactly
# by the endpoint t = 1.

def qp_x_f(x, pi):
    phi = x[0] * x[1]
    return np.array([x[0] - phi * pi[1], x[1] + phi * pi[0]])


def qp_h(x, pi) -> float:
    return (1.0 - x[1] * pi[1]) * (1.0 + x[0] * pi[0])


def qp_psi(x, pi) -> float:
    return pi[0] * pi[1]


def qp_member(x, pi, box=BOX) -> bool:
    return (in_box(x, box) and x[0] * pi[0] > -1.0 and x[1] * pi[1] < 1.0
            and in_box(qp_x_f(x, pi), box))


def qp_ray_roots(x, pi):
    """Parameters t in (0, 1] where a factor of h(t) vanishes."""
    roots = []
    if x[1] * pi[1] >= 1.0:
        roots.append(1.0 / (x[1] * pi[1]))
    if x[0] * pi[0] <= -1.0:
        roots.append(-1.0 / (x[0] * pi[0]))
    return roots


def qp_multiply(x, pi, pi2):
    """(x, pi) . (x_f, pi2) = (x, pi + h pi2)."""
    return np.asarray(x, float), np.asarray(pi, float) + qp_h(x, pi) * np.asarray(pi2, float)


def qp_inverse(x, pi):
    return qp_x_f(x, pi), -np.asarray(pi, float) / qp_h(x, pi)


def qp_embed(x, pi, N):
    """Straight-line representative of (x, pi) on N intervals, with the
    integrating factor in closed form: H(u) = 1 + c u - phi pi1 pi2 u^2,
    c = x1 pi1 - x2 pi2, and eta = pi / H."""
    u = np.linspace(0.0, 1.0, N + 1)
    phi = x[0] * x[1]
    X = np.stack([x[0] - u * phi * pi[1], x[1] + u * phi * pi[0]], axis=1)
    H = 1.0 + (x[0] * pi[0] - x[1] * pi[1]) * u - phi * pi[0] * pi[1] * u ** 2
    eta = np.outer(1.0 / H, pi)
    return X, eta


def qp_alpha(X):
    phi = X[:, 0] * X[:, 1]
    out = np.zeros((len(X), 2, 2))
    out[:, 0, 1] = phi
    out[:, 1, 0] = -phi
    return out


# ---------------------------------------------------------------------------
# phi = sin(x1) + 2 > 0: h > 0 everywhere, so membership is the rectangle
# test on x and on x_f.

def sin_phi(x) -> float:
    return math.sin(x[0]) + 2.0


def sin_x_f(x, pi):
    phi = sin_phi(x)
    return np.array([x[0] - phi * pi[1], x[1] + phi * pi[0]])


def sin_h(x, pi) -> float:
    return sin_phi(sin_x_f(x, pi)) / sin_phi(x)


def sin_member(x, pi, box=BOX) -> bool:
    return in_box(x, box) and in_box(sin_x_f(x, pi), box)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
_GL_S = 0.5 * (_GL_NODES + 1.0)
_GL_W = 0.5 * _GL_WEIGHTS


def sin_psi(x, pi) -> float:
    """{pi1, pi2} = -int_0^1 (1-s) v^T Hess(phi)(x + s phi v) v ds with
    v = (-pi2, pi1); for sin(x1) + 2 the integrand is
    (1-s) pi2^2 sin(x1 - s phi pi2). Gauss-Legendre, no cancellation."""
    a = sin_phi(x) * pi[1]
    vals = (1.0 - _GL_S) * np.sin(x[0] - a * _GL_S)
    return float(pi[1] ** 2 * np.dot(_GL_W, vals))


def sin_multiply(x, pi, pi2):
    return np.asarray(x, float), np.asarray(pi, float) + sin_h(x, pi) * np.asarray(pi2, float)


def sin_inverse(x, pi):
    return sin_x_f(x, pi), -np.asarray(pi, float) / sin_h(x, pi)


# ---------------------------------------------------------------------------
# Group exponentials and adjoint actions of the builtin Lie algebras.
# su(2): basis e_i = (quaternion unit i)/2 acting by left multiplication;
# so(3): e_i = hat(unit vector i); heisenberg3: e1 = E12, e2 = E23, e3 = E13.

def quat_left_matrix(q):
    w, x, y, z = q
    return np.array([[w, -x, -y, -z],
                     [x, w, -z, y],
                     [y, z, w, -x],
                     [z, -y, x, w]])


def su2_quat(w):
    """exp of sum w_i e_i as a unit quaternion (cos(t/2), sin(t/2) w/t)."""
    w = np.asarray(w, float)
    t = float(np.linalg.norm(w))
    if t == 0.0:
        return np.array([1.0, 0.0, 0.0, 0.0])
    return np.concatenate([[math.cos(t / 2)], math.sin(t / 2) * w / t])


def su2_exp(w):
    return quat_left_matrix(su2_quat(w))


def quat_product(p, q):
    pw, pv = p[0], np.asarray(p[1:])
    qw, qv = q[0], np.asarray(q[1:])
    return np.concatenate([[pw * qw - pv @ qv], pw * qv + qw * pv + np.cross(pv, qv)])


def quat_rotation(q):
    """Rotation v -> q v q* of a unit quaternion."""
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def hat(w):
    return np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])


def so3_exp(w):
    """Rodrigues: I + sin(t) K + (1 - cos(t)) K^2 with K = hat(w / t)."""
    w = np.asarray(w, float)
    t = float(np.linalg.norm(w))
    if t == 0.0:
        return np.eye(3)
    K = hat(w / t)
    return np.eye(3) + math.sin(t) * K + (1.0 - math.cos(t)) * (K @ K)


def heis_exp(w):
    """The algebra is nilpotent of step 2: exp(A) = I + A + A^2/2."""
    A = np.array([[0.0, w[0], w[2]], [0.0, 0.0, w[1]], [0.0, 0.0, 0.0]])
    return np.eye(3) + A + 0.5 * (A @ A)


def group_exp(spec_name, w):
    return {"su2": su2_exp, "so3": so3_exp, "heisenberg3": heis_exp}[spec_name](w)


def adjoint(spec_name, g):
    """Matrix of v -> g v g^{-1} on the algebra, in the basis e_i, for su2
    (g a left-multiplication matrix) and so3 (g a rotation)."""
    if spec_name == "su2":
        return quat_rotation(np.asarray(g)[:, 0])
    if spec_name == "so3":
        return np.asarray(g, float)
    raise ValueError(spec_name)


def norm_drift(X) -> float:
    r = np.linalg.norm(X, axis=1)
    return float(np.max(r) - np.min(r))


def casimir_drift(spec_name, X) -> float:
    """Spread along a path of the Casimir: |X| (su2, so3) or X3
    (heisenberg3)."""
    if spec_name == "heisenberg3":
        return float(np.max(X[:, 2]) - np.min(X[:, 2]))
    return norm_drift(X)


EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    EPS3[_i, _j, _k] = 1.0
    EPS3[_j, _i, _k] = -1.0

HEIS_F = np.zeros((3, 3, 3))
HEIS_F[0, 1, 2] = 1.0
HEIS_F[1, 0, 2] = -1.0

# f[i, j, k] with [e_i, e_j] = f^{ij}_k e_k
STRUCTURE_CONSTANTS = {"su2": EPS3, "so3": EPS3, "heisenberg3": HEIS_F}


def linear_alpha(f):
    """alpha^{ij}(x) = f^{ij}_k x^k over a batch of points."""
    return lambda X: np.einsum("ijk,mk->mij", f, X)


# ---------------------------------------------------------------------------
# Cubic radial profile f(R) = R / g(R), g = 1 + (R - 1)^3. Then
# A = 4 pi R / f = 4 pi g, A' = 12 pi (R - 1)^2 >= 0 with a single
# degenerate zero at R = 1, C = R f'/f = 1 - 3 R (R - 1)^2 / g, and the
# period 4 pi (1 - C) / f equals A'.

CUBIC = "R/(1+(R-1)^3)"


def cubic_f(R) -> float:
    return R / (1.0 + (R - 1.0) ** 3)


def cubic_fprime(R) -> float:
    g = 1.0 + (R - 1.0) ** 3
    return (g - 3.0 * R * (R - 1.0) ** 2) / g ** 2


def cubic_area(R) -> float:
    return 4.0 * math.pi * (1.0 + (R - 1.0) ** 3)


def cubic_darea(R) -> float:
    return 12.0 * math.pi * (R - 1.0) ** 2


def cubic_c(R) -> float:
    return 1.0 - 3.0 * R * (R - 1.0) ** 2 / (1.0 + (R - 1.0) ** 3)


def cubic_period(R) -> float:
    return 12.0 * math.pi * (R - 1.0) ** 2


CUBIC_CRITICAL_R = 1.0


def cubic_alpha(X):
    r = np.linalg.norm(X, axis=1)
    f = r / (1.0 + (r - 1.0) ** 3)
    return f[:, None, None] * np.einsum("ijk,mk->mij", EPS3, X)


# ---------------------------------------------------------------------------
# Gauss law on the uniform grid u_k = k/N: central differences inside,
# second-order one-sided differences at the ends.

def grid_derivative(Y):
    N = len(Y) - 1
    out = np.empty_like(Y)
    out[1:-1] = (Y[2:] - Y[:-2]) * (N / 2.0)
    out[0] = (-3.0 * Y[0] + 4.0 * Y[1] - Y[2]) * (N / 2.0)
    out[-1] = (3.0 * Y[-1] - 4.0 * Y[-2] + Y[-3]) * (N / 2.0)
    return out


def gauss_residual(alpha, X, eta) -> float:
    """max_k |X'(u_k) + alpha(X_k) eta_k|."""
    C = grid_derivative(X) + np.einsum("mij,mj->mi", alpha(X), eta)
    return float(np.max(np.linalg.norm(C, axis=1)))


def smooth_eta(rng, N, n, amplitude):
    """sum_{k=1..3} amplitude/k sin(pi k u) r_k with Gaussian r_k."""
    u = np.linspace(0.0, 1.0, N + 1)
    eta = np.zeros((N + 1, n))
    for k in range(1, 4):
        eta += amplitude / k * np.outer(np.sin(math.pi * k * u), rng.standard_normal(n))
    return eta
