"""The groupoid T*G = g* x G for the dual of a Lie algebra: holonomy of
eta, the mutually inverse maps between path space and g* x G, coadjoint
action and group-side multiplication, with su(2) realized via unit
quaternions.

Convention contract (fixed once, asserted by ``test_convention_contract``
in ``tests/test_lie_dual.py``):

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

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import expr as ex
from . import pathspace as ps
from .poisson import PoissonStructure, kirillov_kostant

__all__ = [
    "LieAlgebraSpec", "LieGroupoidPoint", "builtin_spec",
    "kk_structure", "holonomy", "to_groupoid", "from_groupoid",
    "coadjoint", "right_lie", "multiply_lie", "inverse_lie", "expm",
    "quat_to_matrix", "matrix_to_quat",
]

RESIDUAL_TOL = 1e-5  # gate of ``to_groupoid`` and of ``lie roundtrip``


EXPM_ORDER = 14   # largest Taylor degree: remainder under eps for norms up to EXPM_THETA
EXPM_THETA = 0.5
EXPM_CHECKED_HALVINGS = 30
EXPM_DET_TOL = 1e-6


def expm(a) -> np.ndarray:
    """Exponential of a matrix or a stack (..., d, d): each matrix halved
    s times to infinity norm <= EXPM_THETA, Taylor by Horner, squared s
    times (Moler & Van Loan, SIAM Rev. 45, 2003). ``LieAlgebraSpec.exp``
    and ``.transport`` call it for a spec without ``rodrigues``; no
    built-in spec is one. The Taylor degree is the least whose remainder
    bound at the stack's largest halved norm is that of EXPM_ORDER at
    EXPM_THETA: 5 at the norms of holonomy steps.
    The infinity norms are taken by d elementwise adds and maxima, the row
    sums in ``np.sum``'s order (for d < 8, term by term): a reduction over
    an axis of length d costs more than the rest of a small stack's call.
    ``ex.NumericalError``, a ValueError, where a squaring overflows, and
    where a matrix halved more than EXPM_CHECKED_HALVINGS times has
    |log det exp A - tr A| > EXPM_DET_TOL:
    each squaring doubles the rounding error, which can take the result
    of a huge argument off the group (to 30 halvings, su2 and so3 stay
    near 1e-7). Callers look ``expm`` up as a module attribute at call
    time."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite matrix")
    rows = functools.reduce(np.add, np.moveaxis(np.abs(a), -1, 0))  # row sums
    norm = functools.reduce(np.maximum, np.moveaxis(rows, -1, 0))
    s = np.maximum(np.frexp(norm / EXPM_THETA)[1], 0)
    scaled = np.ldexp(a, -s[..., None, None])
    # the least degree m >= 1 whose remainder bound mu^(m+1) / (m+1)! at the
    # largest scaled norm mu is at most that of EXPM_ORDER at EXPM_THETA
    mu = np.max(np.ldexp(norm, -s), initial=0.0)
    bound = EXPM_THETA ** (EXPM_ORDER + 1) / math.factorial(EXPM_ORDER + 1)
    m = next((k for k in range(1, EXPM_ORDER) if mu ** (k + 1) / math.factorial(k + 1) <= bound), EXPM_ORDER)
    eye = np.eye(a.shape[-1])
    t = eye + scaled / m  # Horner from eye: scaled @ eye is scaled
    for k in range(m - 1, 0, -1):
        t = eye + (scaled @ t) / k
    with np.errstate(over="ignore", invalid="ignore"):
        for level in range(int(np.max(s, initial=0))):
            t = np.where((s > level)[..., None, None], t @ t, t)
    _finite(t)
    checked = s > EXPM_CHECKED_HALVINGS
    if np.any(checked):
        sign, logdet = np.linalg.slogdet(t[checked])
        departure = np.abs(logdet - np.trace(a[checked], axis1=-2, axis2=-1))
        if np.any((sign <= 0) | ~(departure <= EXPM_DET_TOL)):
            raise ex.NumericalError("matrix exponential loses its accuracy: argument too large")
    return t


def _finite(t) -> np.ndarray:
    """t, or ``ex.NumericalError`` where an exponential overflowed in it."""
    if not np.all(np.isfinite(t)):
        raise ex.NumericalError("matrix exponential overflows")
    return t


def _rodrigues(w, angle, scale=1.0):
    """Rodrigues' formula (Murray, Li & Sastry 1994, ch. 2) for the stacked
    matrices K = scale rep(w) of a linear rep with K^3 = -theta^2 K, theta =
    angle r, r = |scale w|: exp K = I + a U + 2 (h U)^2 for U = rep(u), u =
    w / |w|, with a = r sin(theta) / theta = sin(theta) / angle and h =
    r sin(theta / 2) / theta = sin(theta / 2) / angle (as 1 - cos theta =
    2 sin(theta / 2)^2), or a = r and h = r / 2 where angle = 0 (K^3 = 0).
    Returns (u, a, h). |w| is taken by hypot, so it does not overflow; U
    has unit size and r enters h before the square, so (h U)^2 neither
    overflows for a huge rotation nor underflows. ValueError for a
    non-finite w, ``ex.NumericalError`` where |w| overflows."""
    w = np.asarray(w, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("matrix exponential of a non-finite matrix")
    with np.errstate(over="ignore"):
        norm = _finite(functools.reduce(np.hypot, np.moveaxis(w, -1, 0)))
    # w = 0 where norm = 0, and every norm > 0 is at least the least subnormal
    u = w / np.maximum(norm, np.finfo(float).smallest_subnormal)[..., None]
    r = scale * norm
    if angle == 0.0:
        return u, r, 0.5 * r
    theta = angle * r
    return u, np.sin(theta) / angle, np.sin(0.5 * theta) / angle


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Structure constants f[i, j, k] (antisymmetric in i, j), a faithful
    matrix representation of the basis, a projection back onto the group
    manifold and a group logarithm, principal away from angle pi; su2 and
    so3 give one at pi too (``_quat_log``, ``_so3_log``).

    ``rodrigues`` = (c_rho, c_ad) states that K^3 = -theta^2 K with theta =
    c_rho |w| for K = rho(w), and with theta = c_ad |w| for K = ad_w: then
    ``exp`` and ``transport`` take Rodrigues' closed form (``_rodrigues``).
    Every built-in spec gives it: su2 (1/2, 1), so3 (1, 1), heisenberg3
    (0, 0). Without it (None) both take ``expm``."""

    n: int
    f: np.ndarray
    basis: np.ndarray  # (n, d, d)
    project: Callable[[np.ndarray], np.ndarray]
    log: Callable[[np.ndarray], np.ndarray]
    name: str = "lie"
    rodrigues: tuple[float, float] | None = None
    _basis_pinv: np.ndarray = field(init=False, repr=False)
    _kk_structure: PoissonStructure = field(init=False, repr=False)

    def __post_init__(self):
        f = np.asarray(self.f, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "basis", basis)
        flat = basis.reshape(self.n, -1)
        object.__setattr__(self, "_basis_pinv", np.linalg.pinv(flat.T))
        object.__setattr__(self, "_kk_structure", kirillov_kostant(f, name=f"kk_{self.name}"))

    @property
    def d(self) -> int:
        return self.basis.shape[1]

    def rho(self, components) -> np.ndarray:
        """Algebra elements with the given stacked components (..., n) as
        matrices (..., d, d)."""
        c = np.asarray(components, dtype=float)
        return (c @ self.basis.reshape(self.n, -1)).reshape(*c.shape[:-1], self.d, self.d)

    def exp(self, w) -> np.ndarray:
        """Group elements exp rho(w) for stacked components w (..., n)."""
        if self.rodrigues is None:
            return expm(self.rho(w))
        u, a, h = _rodrigues(w, self.rodrigues[0])
        hk = self.rho(h[..., None] * u)
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(np.eye(self.d) + self.rho(a[..., None] * u) + 2.0 * (hk @ hk))

    def transport(self, xi, w, s) -> np.ndarray:
        """Rows xi exp(s_k ad_w) for a vector s, with [w, e_i] = ad_w[m, i]
        e_m: the coadjoint transport of xi along exp(s rho(w)). With
        ``rodrigues`` they are xi + a_k xi U + 2 h_k^2 xi U^2 for U = ad_u,
        u = w / |w|, and no stack of matrices is formed."""
        xi, w, s = (np.asarray(x, dtype=float) for x in (xi, w, s))
        if self.rodrigues is None:
            return xi @ expm(s[:, None, None] * np.einsum("j,jim->mi", w, self.f))
        u, a, h = _rodrigues(w, self.rodrigues[1], s)
        ad = np.einsum("j,jim->mi", u, self.f)
        v = xi @ ad
        with np.errstate(over="ignore", invalid="ignore"):
            return _finite(xi + np.outer(a, v) + 2.0 * h[:, None] * np.outer(h, v @ ad))

    def components(self, matrix) -> np.ndarray:
        """Inverse of ``rho`` (least squares onto the basis span)."""
        return self._basis_pinv @ np.asarray(matrix, dtype=float).ravel()

    def adjoint_matrix(self, g) -> np.ndarray:
        """A with g rho(e_i) g^{-1} = sum_m A[m, i] rho(e_m)."""
        conjugated = g @ self.basis @ np.linalg.inv(g)
        return self._basis_pinv @ conjugated.reshape(self.n, -1).T

    def homomorphism_defect(self) -> float:
        """max |[rho_i, rho_j] - f^{ij}_k rho_k|."""
        products = self.basis[:, None] @ self.basis[None, :]
        comm = products - products.transpose(1, 0, 2, 3)
        return float(np.max(np.abs(comm - np.einsum("ijk,kab->ijab", self.f, self.basis))))

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
    norm = np.linalg.norm(q)
    if not 0.0 < norm < np.inf:
        raise ValueError("quaternion must have a finite nonzero norm")
    return quat_to_matrix(q / norm)


def _quat_log(m):
    """Log of the unit quaternion (q0, q_v) of m as a matrix: theta q_v / |q_v|,
    theta = atan2(|q_v|, q0) in [0, pi], principal for theta < pi. Where q_v = 0
    the axis is (1, 0, 0): the log of -1, one of a sphere of them, is pi (1, 0, 0)."""
    q = matrix_to_quat(_quat_project(m))
    s = np.linalg.norm(q[1:])
    axis = q[1:] / s if s > 0.0 else np.array([1.0, 0.0, 0.0])
    return quat_to_matrix([0.0, *np.arctan2(s, q[0]) * axis])


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_j, _i, _k] = -1.0
_EPS3.setflags(write=False)  # shared by the so3 and su2 specs


def _su2_spec():
    # basis e_i = quaternion units / 2: [e_i, e_j] = eps_{ijk} e_k
    basis = np.stack([
        quat_to_matrix([0.0, 0.5, 0.0, 0.0]),
        quat_to_matrix([0.0, 0.0, 0.5, 0.0]),
        quat_to_matrix([0.0, 0.0, 0.0, 0.5]),
    ])
    return LieAlgebraSpec(n=3, f=_EPS3, basis=basis, project=_quat_project,
                          log=_quat_log, name="su2", rodrigues=(0.5, 1.0))


def _so3_project(m):
    U, _, Vt = np.linalg.svd(m)
    R = U @ Vt
    if np.linalg.det(R) < 0:
        U[:, -1] *= -1
        R = U @ Vt
    return R


def _so3_log(m):
    """Twice ``_quat_log`` of the rotation's unit quaternion q, taken with
    q0 >= 0 as the top eigenvector of Bar-Itzhack's symmetric K = 4 q q^T - I
    (no case split near angle pi). At angle pi: pi times the axis eigh returns."""
    (a, b, c), (d, e, f), (g, h, i) = np.asarray(m, dtype=float)
    k = np.array([[a + e + i, h - f, c - g, d - b], [h - f, a - e - i, b + d, c + g],
                  [c - g, b + d, e - a - i, f + h], [d - b, c + g, f + h, i - a - e]])
    q = np.linalg.eigh(k)[1][:, -1]
    w = 2.0 * _quat_log(quat_to_matrix(q if q[0] >= 0.0 else -q))[1:, 0]
    return -_EPS3 @ w  # rho(w) of the so3 spec: w x


def _so3_spec():
    # rho(w) v = w x v: [e_i, e_j] = eps_{ijk} e_k
    return LieAlgebraSpec(n=3, f=_EPS3, basis=-_EPS3, project=_so3_project,
                          log=_so3_log, name="so3", rodrigues=(1.0, 1.0))


def _heis_project(m):
    return np.triu(m, 1) + np.eye(3)


def _heis_log(m):
    """Exact: N = g - I is nilpotent of step 3, so log g = N - N^2 / 2."""
    n = np.asarray(m, dtype=float) - np.eye(3)
    return n - 0.5 * (n @ n)


def _heisenberg_spec():
    f = np.zeros((3, 3, 3))
    f[0, 1, 2] = 1.0
    f[1, 0, 2] = -1.0
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0  # e1 = E_{12}
    basis[1, 1, 2] = 1.0  # e2 = E_{23}
    basis[2, 0, 2] = 1.0  # e3 = E_{13}
    return LieAlgebraSpec(n=3, f=f, basis=basis, project=_heis_project,
                          log=_heis_log, name="heisenberg3", rodrigues=(0.0, 0.0))


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
    """Kirillov-Kostant structure alpha^{ij}(x) = f^{ij}_k x^k, one per spec."""
    return spec._kk_structure


def holonomy(spec: LieAlgebraSpec, m: ps.DiscretizedMorphism) -> np.ndarray:
    """Parallel transport over [0, 1] for hol' = hol . eta_hat: the
    path-ordered product of exp(du eta_hat) at each interval's midpoint,
    with eta interpolated linearly there, each step by ``spec.exp``. Second
    order in du; each step is a group element, so the product stays on the
    group up to rounding."""
    if m.n != spec.n:
        raise ValueError("representation size mismatch")
    steps = spec.exp(ps.midpoints(m.eta) / m.N)
    while len(steps) > 1:  # pairwise products keep the path order
        even = len(steps) // 2 * 2
        steps = np.concatenate([steps[0:even:2] @ steps[1:even:2], steps[even:]])
    return steps[0]


def to_groupoid(spec: LieAlgebraSpec, m: ps.DiscretizedMorphism,
                residual_tol: float = RESIDUAL_TOL) -> LieGroupoidPoint:
    """(X(0), hol(eta)) for a Gauss-law solution, one that passes
    ``pathspace.require_solution`` at residual_tol."""
    ps.require_solution(kk_structure(spec), m, residual_tol)
    return LieGroupoidPoint(xi=m.X[0], g=holonomy(spec, m))


def from_groupoid(spec: LieAlgebraSpec, xi, g, N: int = ps.DEFAULT_GRID,
                  tapered: bool = False) -> ps.DiscretizedMorphism:
    """Geodesic representative of (xi, g): h(u) = exp(u log g), constant
    eta_hat = log g, X(u) = Ad_{h(u)}^T xi = exp(u ad_w)^T xi for
    w = log g, since Ad exp = exp ad (``LieAlgebraSpec.transport``).

    With ``tapered`` the path is reparametrized by the quintic smoothstep
    u -> u^3 (10 - 15u + 6u^2) (``pathspace.taper``) so eta vanishes at
    the endpoints (for concatenation)."""
    xi = np.asarray(xi, dtype=float)
    g = np.asarray(g, dtype=float)
    if N < ps.MIN_NODES - 1:
        raise ValueError(f"from_groupoid needs N >= {ps.MIN_NODES - 1} intervals, got N = {N}")
    if not spec.group_membership_defect(g) <= 1e-8:
        raise ValueError("g is not on the group manifold")
    comps = spec.components(spec.log(g))
    scale, rate = ps.taper(np.linspace(0.0, 1.0, N + 1), tapered)
    eta = np.outer(rate, comps)
    return ps.DiscretizedMorphism(n=spec.n, X=spec.transport(xi, comps, scale), eta=eta)


def coadjoint(spec: LieAlgebraSpec, g, xi) -> np.ndarray:
    """Coadjoint action Ad*_g xi, dual to the adjoint by
    transpose-inverse: Ad*_g = ((Ad_g)^{-1})^T."""
    A = spec.adjoint_matrix(np.asarray(g, dtype=float))
    return np.linalg.inv(A).T @ np.asarray(xi, dtype=float)


def right_lie(spec: LieAlgebraSpec, point: LieGroupoidPoint) -> np.ndarray:
    """r(xi, g) = Ad*_{g^{-1}} xi = (Ad_g)^T xi = X(1) of the geodesic
    representative."""
    return spec.adjoint_matrix(point.g).T @ point.xi


def multiply_lie(spec: LieAlgebraSpec, a: LieGroupoidPoint,
                 b: LieGroupoidPoint) -> LieGroupoidPoint:
    """(xi, g) . (Ad*_{g^{-1}} xi, h) = (xi, g h); |b.xi - r(a)| <= 1e-8."""
    expected = right_lie(spec, a)
    if not np.linalg.norm(b.xi - expected) <= 1e-8:
        raise ValueError("points are not composable: xi of the second "
                         "factor must equal r of the first")
    return LieGroupoidPoint(xi=a.xi, g=spec.project(a.g @ b.g))


def inverse_lie(spec: LieAlgebraSpec, a: LieGroupoidPoint) -> LieGroupoidPoint:
    return LieGroupoidPoint(xi=right_lie(spec, a), g=np.linalg.inv(a.g))
