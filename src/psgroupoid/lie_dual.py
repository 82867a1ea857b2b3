"""The groupoid T*G = g* x G for the dual of a Lie algebra: holonomy of
eta, the mutually inverse maps between path space and g* x G, coadjoint
action and group-side multiplication, with su(2) realized via unit
quaternions.

Convention contract (fixed once, asserted by ``convention_self_test``):

* eta is identified with the Lie-algebra-valued matrix
  ``eta_hat(u) = sum_j eta_j(u) rho(e_j)``;
* holonomy solves ``hol'(u) = hol(u) . eta_hat(u)`` with hol(0) = I, so
  holonomies compose in path order under concatenation;
* the coadjoint transport along a path h(u) from the identity is
  ``X(u) = Ad_{h(u)}^T xi`` (components X_i = <xi, h rho(e_i) h^{-1}>),
  which solves the Gauss law X' = -M(eta) X with
  ``M(eta)^i_k = f^{ij}_k eta_j`` for ``eta_hat = h^{-1} h'``.

With these choices j(xi, g) built from the geodesic h(u) = exp(u log g)
has vanishing Gauss residual and concatenation maps to (xi, g . h)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import pathspace as ps
from .poisson import PoissonStructure, kirillov_kostant

__all__ = [
    "LieAlgebraSpec", "LieGroupoidPoint", "builtin_spec",
    "kk_structure", "holonomy", "to_groupoid", "from_groupoid",
    "coadjoint", "multiply_lie", "convention_self_test",
    "quat_to_matrix", "matrix_to_quat",
]

ANTIPODE_RADIUS = 1e-6


def expm(a) -> np.ndarray:
    """Matrix exponential. scipy is imported here, on first use, so that
    importing the package does not pay for it; callers look ``expm`` up
    as a module attribute at call time."""
    from scipy.linalg import expm as scipy_expm
    return scipy_expm(a)


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants f[i, j, k] (antisymmetric in i, j), a faithful
    matrix representation of the basis, and a projection back onto the
    group manifold."""

    n: int
    f: np.ndarray
    basis: np.ndarray  # (n, d, d)
    project: Callable[[np.ndarray], np.ndarray]
    name: str = "lie"
    log: Callable[[np.ndarray], np.ndarray] | None = None
    _basis_pinv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "basis", basis)
        flat = basis.reshape(self.n, -1)
        object.__setattr__(self, "_basis_pinv", np.linalg.pinv(flat.T))

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def rho(self, components) -> np.ndarray:
        """Algebra element with the given components as a matrix."""
        return np.einsum("j,jab->ab", np.asarray(components, dtype=float),
                         self.basis)

    def components(self, matrix) -> np.ndarray:
        """Inverse of ``rho`` (least squares onto the basis span)."""
        return self._basis_pinv @ np.asarray(matrix, dtype=float).ravel()

    def adjoint_matrix(self, g) -> np.ndarray:
        """A with g rho(e_i) g^{-1} = sum_m A[m, i] rho(e_m)."""
        conjugated = g @ self.basis @ np.linalg.inv(g)
        return self._basis_pinv @ conjugated.reshape(self.n, -1).T

    def group_log(self, g) -> np.ndarray:
        if self.log is not None:
            return self.log(g)
        from scipy.linalg import logm
        w = logm(np.asarray(g, dtype=float))
        if np.max(np.abs(w.imag)) > 1e-8:
            raise ValueError("matrix logarithm has a large imaginary part")
        return w.real

    def homomorphism_defect(self) -> float:
        """max |[rho_i, rho_j] - f^{ij}_k rho_k|."""
        worst = 0.0
        for i in range(self.n):
            for j in range(self.n):
                comm = self.basis[i] @ self.basis[j] - self.basis[j] @ self.basis[i]
                target = np.einsum("k,kab->ab", self.f[i, j], self.basis)
                worst = max(worst, float(np.max(np.abs(comm - target))))
        return worst

    def group_membership_defect(self, g) -> float:
        return float(np.max(np.abs(self.project(g) - g)))


@dataclass(frozen=True)
class LieGroupoidPoint:
    xi: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float))


# ---------------------------------------------------------------------------
# Built-in specs

def quat_to_matrix(q) -> np.ndarray:
    """Left-multiplication matrix of a quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array([
        [w, -x, -y, -z],
        [x, w, -z, y],
        [y, z, w, -x],
        [z, -y, x, w],
    ])


def matrix_to_quat(m) -> np.ndarray:
    return np.asarray(m, dtype=float)[:, 0].copy()


def _quat_project(m):
    q = matrix_to_quat(m)
    return quat_to_matrix(q / np.linalg.norm(q))


def _quat_log(m):
    """Principal log of a unit quaternion as a left-multiplication
    matrix; undefined near the antipode -1."""
    q = matrix_to_quat(m)
    q = q / np.linalg.norm(q)
    if np.linalg.norm(q - np.array([-1.0, 0, 0, 0])) < ANTIPODE_RADIUS:
        raise ValueError("group element too close to the antipode; "
                         "the logarithm branch is ambiguous")
    w = np.clip(q[0], -1.0, 1.0)
    vec = q[1:]
    norm_vec = np.linalg.norm(vec)
    if norm_vec < 1e-300:
        return np.zeros((4, 4))
    theta = np.arctan2(norm_vec, w)
    return quat_to_matrix(np.concatenate([[0.0], theta * vec / norm_vec]))


def _epsilon3():
    f = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[i, j, k] = 1.0
        f[j, i, k] = -1.0
    return f


def _su2_spec():
    # basis e_i = quaternion units / 2: [e_i, e_j] = eps_{ijk} e_k
    basis = np.stack([
        quat_to_matrix([0.0, 0.5, 0.0, 0.0]),
        quat_to_matrix([0.0, 0.0, 0.5, 0.0]),
        quat_to_matrix([0.0, 0.0, 0.0, 0.5]),
    ])
    return LieAlgebraSpec(n=3, f=_epsilon3(), basis=basis,
                          project=_quat_project, name="su2", log=_quat_log)


def _so3_project(m):
    U, _, Vt = np.linalg.svd(m)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        U[:, -1] *= -1
        R = U @ Vt
    return R


def _so3_spec():
    basis = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                basis[i, j, k] = -_epsilon3()[i, j, k]
    return LieAlgebraSpec(n=3, f=_epsilon3(), basis=basis,
                          project=_so3_project, name="so3")


def _heis_project(m):
    out = np.triu(m, 1)
    return out + np.eye(3)


def _heisenberg_spec():
    f = np.zeros((3, 3, 3))
    f[0, 1, 2] = 1.0
    f[1, 0, 2] = -1.0
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0  # e1 = E_{12}
    basis[1, 1, 2] = 1.0  # e2 = E_{23}
    basis[2, 0, 2] = 1.0  # e3 = E_{13}
    return LieAlgebraSpec(n=3, f=f, basis=basis,
                          project=_heis_project, name="heisenberg3")


_BUILTINS = {"su2": _su2_spec, "so3": _so3_spec, "heisenberg3": _heisenberg_spec}


def builtin_spec(name: str) -> LieAlgebraSpec:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin spec {name!r}; "
                         f"choose from {sorted(_BUILTINS)}") from None


# ---------------------------------------------------------------------------
# Operations

def kk_structure(spec: LieAlgebraSpec) -> PoissonStructure:
    """Kirillov-Kostant structure alpha^{ij}(x) = f^{ij}_k x^k."""
    return kirillov_kostant(spec.f, name=f"kk_{spec.name}")


def holonomy(spec: LieAlgebraSpec, m: ps.DiscretizedMorphism) -> np.ndarray:
    """Parallel transport over [0, 1]: RK4 for hol' = hol . eta_hat with
    linear interpolation of eta, renormalized onto the group each step."""
    if m.n != spec.n:
        raise ValueError("representation size mismatch")
    N = m.N
    du = 1.0 / N
    mats = np.einsum("mj,jab->mab", m.eta, spec.basis)
    h = np.eye(spec.d)
    for k in range(N):
        e0 = mats[k]
        e1 = mats[k + 1]
        eh = 0.5 * (e0 + e1)
        k1 = h @ e0
        k2 = (h + 0.5 * du * k1) @ eh
        k3 = (h + 0.5 * du * k2) @ eh
        k4 = (h + du * k3) @ e1
        h = h + (du / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        h = spec.project(h)
    return h


def to_groupoid(spec: LieAlgebraSpec, m: ps.DiscretizedMorphism,
                residual_tol: float = 1e-5) -> LieGroupoidPoint:
    """(X(0), hol(eta)) for a Gauss-law solution."""
    res = ps.gauss_residual(kk_structure(spec), m)
    if res > residual_tol:
        raise ValueError(f"not a constraint solution (residual {res:g})")
    return LieGroupoidPoint(xi=m.X[0], g=holonomy(spec, m))


def from_groupoid(spec: LieAlgebraSpec, xi, g, N: int = ps.DEFAULT_GRID,
                  tapered: bool = False) -> ps.DiscretizedMorphism:
    """Geodesic representative of (xi, g): h(u) = exp(u log g), constant
    eta_hat = log g, X(u) = Ad_{h(u)}^T xi = exp(u ad_w)^T xi for
    w = log g, since Ad exp = exp ad.

    With ``tapered`` the path is reparametrized by u -> 3u^2 - 2u^3 so
    eta vanishes at the endpoints (for concatenation)."""
    xi = np.asarray(xi, dtype=float)
    g = np.asarray(g, dtype=float)
    if spec.group_membership_defect(g) > 1e-8:
        raise ValueError("g is not on the group manifold")
    w = spec.group_log(g)
    comps = spec.components(w)
    u = np.linspace(0.0, 1.0, N + 1)
    if tapered:
        # quintic smoothstep: C^2 at the endpoints, so concatenations of
        # tapered representatives keep the discretization order
        scale = u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)
        rate = 30.0 * u ** 2 * (1.0 - u) ** 2
    else:
        scale = u
        rate = np.ones_like(u)
    eta = np.outer(rate, comps)
    ad = np.einsum("j,jim->mi", comps, spec.f)  # [w, e_i] = ad[m, i] e_m
    X = xi @ expm(scale[:, None, None] * ad)
    return ps.DiscretizedMorphism(n=spec.n, X=X, eta=eta)


def coadjoint(spec: LieAlgebraSpec, g, xi) -> np.ndarray:
    """Coadjoint action Ad*_g xi, dual to the adjoint by
    transpose-inverse: Ad*_g = ((Ad_g)^{-1})^T."""
    A = spec.adjoint_matrix(np.asarray(g, dtype=float))
    return np.linalg.inv(A).T @ np.asarray(xi, dtype=float)


def left_lie(point: LieGroupoidPoint) -> np.ndarray:
    return point.xi.copy()


def right_lie(spec: LieAlgebraSpec, point: LieGroupoidPoint) -> np.ndarray:
    """r(xi, g) = Ad*_{g^{-1}} xi = (Ad_g)^T xi = X(1) of the geodesic
    representative."""
    return spec.adjoint_matrix(point.g).T @ point.xi


def multiply_lie(spec: LieAlgebraSpec, a: LieGroupoidPoint,
                 b: LieGroupoidPoint, tol: float = 1e-8) -> LieGroupoidPoint:
    """(xi, g) . (Ad*_{g^{-1}} xi, h) = (xi, g h)."""
    expected = right_lie(spec, a)
    if np.linalg.norm(b.xi - expected) > tol:
        raise ValueError("points are not composable: xi of the second "
                         "factor must equal r of the first")
    return LieGroupoidPoint(xi=a.xi, g=spec.project(a.g @ b.g))


def inverse_lie(spec: LieAlgebraSpec, a: LieGroupoidPoint) -> LieGroupoidPoint:
    return LieGroupoidPoint(xi=right_lie(spec, a), g=np.linalg.inv(a.g))


def convention_self_test(spec: LieAlgebraSpec, seed: int = 0,
                         N: int = 400) -> dict:
    """Assert the convention contract: (a) geodesic representatives have
    small Gauss residual, (b) concatenation maps to the group product in
    path order. Returns the measured defects."""
    rng = np.random.default_rng(seed)
    s = kk_structure(spec)
    xi = rng.standard_normal(spec.n)
    g1 = spec.project(expm(spec.rho(0.7 * rng.standard_normal(spec.n))))
    g2 = spec.project(expm(spec.rho(0.7 * rng.standard_normal(spec.n))))
    m1 = from_groupoid(spec, xi, g1, N=N, tapered=True)
    res = ps.gauss_residual(s, m1)
    m2 = from_groupoid(spec, right_lie(spec, LieGroupoidPoint(xi, g1)),
                       g2, N=N, tapered=True)
    glued = ps.concatenate(m1, m2, endpoint_tol=1e-6)
    hol = holonomy(spec, glued)
    order_defect = float(np.max(np.abs(hol - spec.project(g1 @ g2))))
    result = {"gauss_residual": float(res), "product_order_defect": order_defect}
    if res > 1e-4 or order_defect > 1e-4:
        raise AssertionError(f"convention contract violated: {result}")
    return result
