"""Discretized bundle morphisms (X, eta): TI -> T*M on a uniform grid,
Gauss-law integration, gauge flows, the symplectic pairing and the
constraint Hamiltonians, plus concatenation and reversal of solutions.

eta is stored as the du-coefficient eta_u sampled at the N+1 nodes
u_k = k/N. Derivatives in u are central differences at interior nodes
and second-order one-sided at the ends, consistent with the trapezoid
quadrature used for all integrals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .poisson import DomainError, PoissonStructure

__all__ = [
    "DiscretizedMorphism", "TangentVector", "GaugeField",
    "path_derivative", "gauss_residual", "solve_gauss",
    "gauge_vector_field", "gauge_flow", "symplectic_pairing",
    "hamiltonian", "hamiltonian_values", "hamiltonian_check",
    "koszul_bracket_values", "equivariance_defect",
    "concatenate", "reverse", "taper",
    "DEFAULT_GRID", "DEFAULT_FLOW_STEPS", "MIN_NODES",
]

DEFAULT_GRID = 1000
DEFAULT_FLOW_STEPS = 64
MIN_NODES = 3  # the one-sided end stencils of path_derivative take three


@dataclass(frozen=True)
class DiscretizedMorphism:
    """Grid sampling of (X, eta); X and eta have shape (N+1, n) with at
    least MIN_NODES nodes."""

    n: int
    X: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        eta = np.asarray(self.eta, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n or X.shape != eta.shape:
            raise ValueError("X and eta must both have shape (N+1, n)")
        if len(X) < MIN_NODES:
            raise ValueError(f"a path needs at least {MIN_NODES} nodes, got {len(X)}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "eta", eta)

    @property
    def N(self) -> int:
        return self.X.shape[0] - 1

    @property
    def u(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.N + 1)

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n,
            "N": self.N,
            "X": self.X.tolist(),
            "etaU": self.eta.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "DiscretizedMorphism":
        data = json.loads(text)
        m = cls(n=int(data["n"]), X=np.array(data["X"], dtype=float),
                eta=np.array(data["etaU"], dtype=float))
        if m.N != int(data["N"]):
            raise ValueError("declared N does not match array length")
        return m


@dataclass(frozen=True)
class TangentVector:
    """Variation (dX, dEta) over the same grid as its base morphism."""

    dX: np.ndarray
    dEta: np.ndarray

    def __post_init__(self):
        dX = np.asarray(self.dX, dtype=float)
        dEta = np.asarray(self.dEta, dtype=float)
        if dX.shape != dEta.shape or dX.ndim != 2:
            raise ValueError("dX and dEta must have matching (N+1, n) shapes")
        object.__setattr__(self, "dX", dX)
        object.__setattr__(self, "dEta", dEta)


class GaugeField:
    """Gauge parameter beta_i(x, u) with beta(x, 0) = beta(x, 1) = 0.

    Components are expressions over (x1..xn, u); symbolic partials in
    every x_j and in u are cached. Boundary vanishing is checked
    numerically at construction on 50 random x points. A 1-form is a
    gauge field with no u, built with ``validate=False``, at ``u=None``.
    """

    def __init__(self, components: Sequence[ex.Expr], n: int,
                 validate=True, sample_box=2.0, seed=0):
        if len(components) != n:
            raise ValueError("need one component per target dimension")
        self.n = n
        self.components = tuple(components)
        names = [f"x{i + 1}" for i in range(n)]
        self._names = names
        self.dx = tuple(
            tuple(ex.differentiate(c, v) for v in names) for c in components
        )
        self.du = tuple(ex.differentiate(c, "u") for c in components)
        if validate:
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-sample_box, sample_box, size=(50, n))
            for u_end in (0.0, 1.0):
                vals = self.value(pts, np.full(50, u_end))
                if np.max(np.abs(vals)) > 1e-12:
                    raise ValueError("gauge field does not vanish at u = %g" % u_end)

    @classmethod
    def parse(cls, sources: Sequence[str], n: int, **kw) -> "GaugeField":
        names = [f"x{i + 1}" for i in range(n)] + ["u"]
        return cls(tuple(ex.parse(s, names) for s in sources), n, **kw)

    def _point(self, X, u):
        X = np.asarray(X, dtype=float)
        p = {name: X[..., i] for i, name in enumerate(self._names)}
        if u is not None:
            p["u"] = np.asarray(u, dtype=float)
        return p

    def value(self, X, u) -> np.ndarray:
        """beta at a batch of points: X (m, n), u (m,) or None -> (m, n)."""
        p = self._point(X, u)
        cols = [ex.evaluate(c, p) for c in self.components]
        return np.stack(cols, axis=-1)

    def jacobian_x(self, X, u) -> np.ndarray:
        """J[m, i, j] = d beta_i / d x_j."""
        p = self._point(X, u)
        rows = []
        for row in self.dx:
            rows.append(np.stack([ex.evaluate(d, p) for d in row], axis=-1))
        return np.stack(rows, axis=-2)

    def partial_u(self, X, u) -> np.ndarray:
        p = self._point(X, u)
        cols = [ex.evaluate(d, p) for d in self.du]
        return np.stack(cols, axis=-1)


def taper(u: np.ndarray, tapered: bool) -> tuple[np.ndarray, np.ndarray]:
    """Reparametrization (scale(u), scale'(u)) of a straight representative
    on the grid u: the identity, or with ``tapered`` the quintic smoothstep
    u^3 (10 - 15u + 6u^2), whose rate and its derivative vanish at the
    ends, so glued paths stay C^2 at the junction."""
    if not tapered:
        return u, np.ones_like(u)
    return u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2), 30.0 * u ** 2 * (1.0 - u) ** 2


def path_derivative(Y: np.ndarray) -> np.ndarray:
    """d/du of nodal values: central differences inside, second-order
    one-sided at the ends. Y has shape (N+1, ...)."""
    N = Y.shape[0] - 1
    du = 1.0 / N
    out = np.empty_like(Y, dtype=float)
    out[1:-1] = (Y[2:] - Y[:-2]) / (2 * du)
    out[0] = (-3 * Y[0] + 4 * Y[1] - Y[2]) / (2 * du)
    out[-1] = (3 * Y[-1] - 4 * Y[-2] + Y[-3]) / (2 * du)
    return out


def _constraint_vector(s: PoissonStructure, m: DiscretizedMorphism) -> np.ndarray:
    """C^j(u_k) = X'^j + alpha^{jk} eta_k, nodewise."""
    Xp = path_derivative(m.X)
    a = s.alpha_at(m.X)
    return Xp + np.einsum("mjk,mk->mj", a, m.eta)


def gauss_residual(s: PoissonStructure, m: DiscretizedMorphism) -> float:
    """Max nodal Euclidean norm of X' + alpha(X) eta."""
    if m.n != s.n:
        raise ValueError("dimension mismatch")
    _check_domain(s, m.X, "X exits domain")
    C = _constraint_vector(s, m)
    return float(np.max(np.linalg.norm(C, axis=1)))


def _check_domain(s: PoissonStructure, X: np.ndarray, message: str):
    """DomainError naming the first node of X outside the domain of s."""
    if s.in_domain is None:
        return
    inside = s.in_domain(X)
    if np.shape(inside) != (len(X),):
        raise ValueError(f"in_domain of {s.name} returned shape {np.shape(inside)} "
                         f"on a batch, expected ({len(X)},)")
    if not np.all(inside):
        raise DomainError(f"{message} at node {np.argmin(inside)}")


def solve_gauss(s: PoissonStructure, x0, eta: np.ndarray,
                N: int | None = None) -> DiscretizedMorphism:
    """Integrate X' = -alpha(X) eta_u from X(0) = x0 by RK4 steps that
    take eta at each interval's midpoint as the mean of its two nodes;
    that linear interpolation makes the solution second order in du."""
    eta = np.asarray(eta, dtype=float)
    if N is None:
        N = eta.shape[0] - 1
    if eta.shape != (N + 1, s.n):
        raise ValueError("eta must be sampled on the same grid, shape (N+1, n)")
    if N + 1 < MIN_NODES:
        raise ValueError(f"a path needs at least {MIN_NODES} nodes, got {N + 1}")
    x = s.check_point(x0)
    du = 1.0 / N
    X = np.empty((N + 1, s.n))
    X[0] = x
    # alpha(x) @ -eta has the bits of -alpha(x) @ eta; negating eta and
    # forming its midpoints once per path saves array operations per step
    e = -eta
    e_mid = 0.5 * (e[:-1] + e[1:])
    alpha, in_domain = s.alpha, s.in_domain
    half, sixth = 0.5 * du, du / 6.0
    for k in range(N):
        k1 = alpha(x) @ e[k]
        k2 = alpha(x + half * k1) @ e_mid[k]
        k3 = alpha(x + half * k2) @ e_mid[k]
        k4 = alpha(x + du * k3) @ e[k + 1]
        x = x + sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        if in_domain is not None and not in_domain(x):
            raise DomainError(f"trajectory exits domain at node {k + 1}")
        X[k + 1] = x
    return DiscretizedMorphism(n=s.n, X=X, eta=eta.copy())


def gauge_vector_field(s: PoissonStructure, m: DiscretizedMorphism,
                       beta: GaugeField) -> TangentVector:
    """Off-shell gauge vector field:
    dX^i   = -alpha^{ij} beta_j
    dEta_i = d_u beta_i + d_i alpha^{jk} eta_j beta_k - C^j d_i beta_j
    with C^j = d_u X^j + alpha^{jk} eta_k and d_u the total u-derivative
    along X(u)."""
    if beta.n != s.n:
        raise ValueError("gauge field dimension mismatch")
    u = m.u
    Xp = path_derivative(m.X)
    a = s.alpha_at(m.X)
    d = s.dalpha_at(m.X)  # d[m, l, i, j] = d_l alpha^{ij}
    C = Xp + np.einsum("mjk,mk->mj", a, m.eta)
    b = beta.value(m.X, u)
    Jb = beta.jacobian_x(m.X, u)  # Jb[m, i, j] = d beta_i / d x_j
    bu = beta.partial_u(m.X, u)

    dX = -np.einsum("mij,mj->mi", a, b)
    total_du = bu + np.einsum("mij,mj->mi", Jb, Xp)
    term2 = np.einsum("mijk,mj,mk->mi", d, m.eta, b)
    term3 = np.einsum("mj,mji->mi", C, Jb)
    dEta = total_du + term2 - term3
    return TangentVector(dX=dX, dEta=dEta)


def gauge_flow(s: PoissonStructure, m: DiscretizedMorphism, beta: GaugeField,
               s_steps: int = DEFAULT_FLOW_STEPS, s_total: float = 1.0,
               residual_tol: float = 1e-5,
               check_residual: bool = True) -> DiscretizedMorphism:
    """Flow a constraint solution along the gauge vector field of beta,
    RK4 in the flow parameter over [0, s_total]."""
    if check_residual and gauss_residual(s, m) > residual_tol:
        raise ValueError("gauge_flow requires a constraint solution "
                         f"(residual above {residual_tol:g})")
    h = s_total / s_steps
    X, eta = m.X.copy(), m.eta.copy()

    def rhs(X, eta):
        v = gauge_vector_field(s, DiscretizedMorphism(n=m.n, X=X, eta=eta), beta)
        return v.dX, v.dEta

    for _ in range(s_steps):
        k1x, k1e = rhs(X, eta)
        k2x, k2e = rhs(X + 0.5 * h * k1x, eta + 0.5 * h * k1e)
        k3x, k3e = rhs(X + 0.5 * h * k2x, eta + 0.5 * h * k2e)
        k4x, k4e = rhs(X + h * k3x, eta + h * k3e)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        eta = eta + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
    _check_domain(s, X, "gauge flow exits domain")
    return DiscretizedMorphism(n=m.n, X=X, eta=eta)


def symplectic_pairing(a: TangentVector, b: TangentVector) -> float:
    """omega(a, b) = int (a.dX^i b.dEta_i - b.dX^i a.dEta_i) du, trapezoid."""
    if a.dX.shape != b.dX.shape:
        raise ValueError("grid mismatch")
    integrand = np.sum(a.dX * b.dEta - b.dX * a.dEta, axis=1)
    N = a.dX.shape[0] - 1
    return float(np.trapezoid(integrand, dx=1.0 / N))


def hamiltonian_values(s: PoissonStructure, m: DiscretizedMorphism,
                       values: np.ndarray) -> float:
    """H for nodewise covector values: int <X' + alpha eta, values> du."""
    C = _constraint_vector(s, m)
    integrand = np.sum(C * values, axis=1)
    return float(np.trapezoid(integrand, dx=1.0 / m.N))


def hamiltonian(s: PoissonStructure, m: DiscretizedMorphism,
                beta: GaugeField) -> float:
    """Moment-map Hamiltonian H_beta = int <dX + alpha eta, beta(X, u)>."""
    return hamiltonian_values(s, m, beta.value(m.X, m.u))


def _random_smooth_tangent(rng, N, n, modes=4):
    """Smooth random variation: low-order Fourier series in u."""
    u = np.linspace(0.0, 1.0, N + 1)
    out = []
    for _ in range(2):
        comp = np.zeros((N + 1, n))
        comp += rng.standard_normal(n)
        for k in range(1, modes + 1):
            a = rng.standard_normal(n)
            b = rng.standard_normal(n)
            comp += np.outer(np.cos(2 * np.pi * k * u), a)
            comp += np.outer(np.sin(2 * np.pi * k * u), b)
        out.append(comp)
    return TangentVector(dX=out[0], dEta=out[1])


def hamiltonian_check(s: PoissonStructure, m: DiscretizedMorphism,
                      beta: GaugeField, trials: int = 20, seed: int = 0,
                      eps: float = 1e-5) -> float:
    """Verify iota_{xi_beta} omega = dH_beta against central finite
    differences along random smooth variations; returns the max defect."""
    rng = np.random.default_rng(seed)
    xi = gauge_vector_field(s, m, beta)
    worst = 0.0
    for _ in range(trials):
        zeta = _random_smooth_tangent(rng, m.N, m.n)
        lhs = symplectic_pairing(xi, zeta)
        mp = DiscretizedMorphism(n=m.n, X=m.X + eps * zeta.dX,
                                 eta=m.eta + eps * zeta.dEta)
        mm = DiscretizedMorphism(n=m.n, X=m.X - eps * zeta.dX,
                                 eta=m.eta - eps * zeta.dEta)
        rhs = (hamiltonian(s, mp, beta) - hamiltonian(s, mm, beta)) / (2 * eps)
        worst = max(worst, abs(lhs - rhs))
    return worst


def koszul_bracket_values(s: PoissonStructure, beta: GaugeField,
                          gamma: GaugeField, X: np.ndarray,
                          u: np.ndarray | None = None) -> np.ndarray:
    """Koszul bracket [beta, gamma]_i = d_i alpha^{jk} beta_j gamma_k
    + alpha^{jk} (d_j beta_i gamma_k + beta_j d_k gamma_i) at points X
    (m, n); u rides along pointwise, and is None for 1-forms."""
    a = s.alpha_at(X)
    d = s.dalpha_at(X)
    b = beta.value(X, u)
    g = gamma.value(X, u)
    Jb = beta.jacobian_x(X, u)
    Jg = gamma.jacobian_x(X, u)
    term1 = np.einsum("mijk,mj,mk->mi", d, b, g)
    term2 = np.einsum("mjk,mij,mk->mi", a, Jb, g)
    term3 = np.einsum("mjk,mj,mik->mi", a, b, Jg)
    return term1 + term2 + term3


def equivariance_defect(s: PoissonStructure, m: DiscretizedMorphism,
                        beta: GaugeField, gamma: GaugeField,
                        eps: float = 1e-4, s_steps: int = 8) -> float:
    """|d/ds H_gamma(flow by xi_beta) - H_{[beta,gamma]}| at s = 0,
    by a small finite flow of size eps (off-shell allowed)."""
    flowed = gauge_flow(s, m, beta, s_steps=s_steps, s_total=eps,
                        check_residual=False)
    lhs = (hamiltonian(s, flowed, gamma) - hamiltonian(s, m, gamma)) / eps
    rhs = hamiltonian_values(s, m, koszul_bracket_values(s, beta, gamma, m.X, m.u))
    return abs(lhs - rhs)


def concatenate(m1: DiscretizedMorphism, m2: DiscretizedMorphism,
                endpoint_tol: float = 1e-8,
                junction_eta_tol: float = 1e-6) -> DiscretizedMorphism:
    """Doubled-speed gluing: first half runs m1 at 2u, second half m2 at
    2u - 1, with eta rescaled by 2. Representatives must match at the
    junction and have (near-)vanishing eta there."""
    if m1.n != m2.n or m1.N != m2.N:
        raise ValueError("grid mismatch")
    if np.linalg.norm(m1.X[-1] - m2.X[0]) > endpoint_tol:
        raise ValueError("endpoint mismatch: right end of m1 differs from "
                         "left end of m2")
    junction = max(np.linalg.norm(m1.eta[-1]), np.linalg.norm(m2.eta[0]))
    if junction > junction_eta_tol:
        raise ValueError(f"eta too large at the junction ({junction:g}); "
                         "use a tapered representative")
    N = m1.N
    X = np.vstack([m1.X, m2.X[1:]])
    eta = np.vstack([2.0 * m1.eta[:-1],
                     [m1.eta[-1] + m2.eta[0]],
                     2.0 * m2.eta[1:]])
    return DiscretizedMorphism(n=m1.n, X=X, eta=eta)


def reverse(m: DiscretizedMorphism) -> DiscretizedMorphism:
    """Pullback under theta(u) = 1 - u: swaps endpoints, flips eta."""
    return DiscretizedMorphism(n=m.n, X=m.X[::-1].copy(),
                               eta=-m.eta[::-1].copy())
