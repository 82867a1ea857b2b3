"""Discretized bundle morphisms (X, eta): TI -> T*M on a uniform grid,
Gauss-law integration, gauge flows, the symplectic pairing and the
constraint Hamiltonians, plus concatenation and reversal of solutions.

eta is stored as the du-coefficient eta_u sampled at the N+1 nodes
u_k = k/N. Four rules act on the grid, and no other module codes its
own: ``path_derivative`` (central differences inside, one-sided at the
ends), ``path_integral`` (the cumulative trapezoid rule) and
``midpoints`` (the mean of each interval's two nodes, linear
interpolation), all second order in du, and ``cubic_midpoints`` (the
cubic through four neighbouring nodes, fourth order), which
``solve_gauss`` uses, so that solver is fourth order. Its RK4 step is one
``ex.Program``, compiled from the bivector once per structure.

``gauge_flow`` steps arrays of shape (n, N+1), one row per component,
with the gauge field bound to the grid once (``GaugeField.on_grid``).
``check_solution`` decides what counts as a constraint solution.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import expr as ex
from .poisson import PoissonStructure

__all__ = [
    "DiscretizedMorphism", "TangentVector", "GaugeField",
    "path_derivative", "path_integral", "midpoints", "cubic_midpoints",
    "gauss_residual", "check_solution", "require_solution", "solve_gauss",
    "gauge_vector_field", "gauge_flow", "symplectic_pairing",
    "hamiltonian", "hamiltonian_check",
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
    every x_j and in u are cached. ``on_grid(u)`` binds the field to the
    u values of a grid, or to u=None for a 1-form: each largest subtree
    whose only variable is u is evaluated once, there, and the components
    and all their partials then run as one compiled ``ex.Program``, one
    expression call per batch of points, in which a constant partial takes
    the shape of the batch. Boundary vanishing is checked numerically
    at construction on 50 x points drawn uniformly from [-2, 2]^n with
    seed 0. A 1-form is a gauge field with no u, built with
    ``validate=False``, at ``u=None``.
    """

    def __init__(self, components: Sequence[ex.Expr], n: int, validate=True):
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
        # the components, then the x partials row by row, then the u partials
        flat, parts = ex.split_out(self.components + sum(self.dx, ()) + self.du, "u")
        self._program = ex.Program(flat)
        self._u_names, self._u_program = tuple(parts), ex.Program(parts.values())
        if validate:
            pts = np.random.default_rng(0).uniform(-2.0, 2.0, size=(50, n))
            for u_end in (0.0, 1.0):
                vals = self.value(pts, np.full(50, u_end))
                if np.max(np.abs(vals)) > 1e-12:
                    raise ValueError("gauge field does not vanish at u = %g" % u_end)

    @classmethod
    def parse(cls, sources: Sequence[str], n: int, **kw) -> "GaugeField":
        names = [f"x{i + 1}" for i in range(n)] + ["u"]
        return cls(tuple(ex.parse(s, names) for s in sources), n, **kw)

    def on_grid(self, u):
        """At u (shape (m,)) or None, the map from component arrays X[j] =
        x_{j+1} (shape (m,)) to lists beta[i], J[i][j] = d beta_i / d x_j
        and d_u beta[i]."""
        point = {} if u is None else {"u": np.asarray(u, dtype=float)}
        bound = dict(zip(self._u_names, ex.evaluate(self._u_program, point)))
        names, n, program = self._names, self.n, self._program

        def at(X):
            p = dict(bound)
            p.update(zip(names, X))
            v = ex.evaluate(program, p)
            return v[:n], [v[n * i:n * (i + 1)] for i in range(1, n + 1)], v[n * (n + 1):]
        return at

    def value(self, X, u) -> np.ndarray:
        """beta at a batch of points: X (m, n), u (m,) or None -> (m, n)."""
        return np.stack(self.on_grid(u)(np.asarray(X, dtype=float).T)[0], axis=1)


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


def path_integral(Y: np.ndarray) -> np.ndarray:
    """int_0^{u_k} du of nodal values by the trapezoid rule, in the shape
    of Y, (N+1, ...); the last row is the integral over [0, 1]."""
    out = np.zeros_like(Y, dtype=float)
    np.cumsum(midpoints(Y) / (Y.shape[0] - 1), axis=0, out=out[1:])
    return out


def midpoints(Y: np.ndarray) -> np.ndarray:
    """Values at each interval's midpoint as the mean of its two nodes,
    shape (N, ...)."""
    return 0.5 * (Y[:-1] + Y[1:])


def cubic_midpoints(Y: np.ndarray) -> np.ndarray:
    """Values at each interval's midpoint from the cubic through four
    neighbouring nodes, shape (N, ...): (-Y[k-1] + 9 Y[k] + 9 Y[k+1] -
    Y[k+2]) / 16 inside, and (5, 15, -5, 1) / 16 one-sided on the first
    four nodes and on the last four. Fourth order in du; a grid of three
    nodes falls back to ``midpoints``."""
    if len(Y) < 4:
        return midpoints(Y)
    out = np.empty_like(Y[1:], dtype=float)
    out[1:-1] = (9.0 * (Y[1:-2] + Y[2:-1]) - (Y[:-3] + Y[3:])) / 16.0
    out[0] = (5.0 * Y[0] + 15.0 * Y[1] - 5.0 * Y[2] + Y[3]) / 16.0
    out[-1] = (5.0 * Y[-1] + 15.0 * Y[-2] - 5.0 * Y[-3] + Y[-4]) / 16.0
    return out


def _constraint(s: PoissonStructure, m: DiscretizedMorphism) -> tuple[np.ndarray, np.ndarray]:
    """X' and the Gauss-law constraint X' + alpha(X) eta of m, each of
    shape (N+1, n)."""
    Xp = path_derivative(m.X)
    return Xp, Xp + np.stack(s.sharp(m.X.T, m.eta.T), axis=1)


def gauss_residual(s: PoissonStructure, m: DiscretizedMorphism) -> float:
    """Max nodal Euclidean norm of X' + alpha(X) eta, the residual that
    ``check_solution`` grades."""
    return check_solution(s, m, 0.0)[0]


def check_solution(s: PoissonStructure, m: DiscretizedMorphism,
                   tol: float) -> tuple[float, bool]:
    """The Gauss residual of m and whether it is at most
    tol * max(1, max nodal |X'|): the end stencils of ``path_derivative``
    err in proportion to the speed of the path."""
    if m.n != s.n:
        raise ValueError("dimension mismatch")
    _check_domain(s, m.X, "X exits domain")
    Xp, C = _constraint(s, m)
    res = float(np.max(np.linalg.norm(C, axis=1)))
    return res, res <= tol * max(1.0, float(np.max(np.linalg.norm(Xp, axis=1))))


def require_solution(s: PoissonStructure, m: DiscretizedMorphism, tol: float,
                     message: str = "not a constraint solution (residual {:g})"):
    """ValueError with ``message``, formatted with the Gauss residual,
    unless ``check_solution`` passes m at tol."""
    res, passed = check_solution(s, m, tol)
    if not passed:
        raise ValueError(message.format(res))


def _check_domain(s: PoissonStructure, X: np.ndarray, message: str):
    """DomainError naming the first node of X outside the domain of s."""
    if s.in_domain is None:
        return
    inside = s.in_domain(X)
    if np.shape(inside) != (len(X),):
        raise ValueError(f"in_domain of {s.name} returned shape {np.shape(inside)} "
                         f"on a batch, expected ({len(X)},)")
    if not np.all(inside):
        raise ex.DomainError(f"{message} at node {np.argmin(inside)}")


_GAUSS_STEPS = weakref.WeakKeyDictionary()  # structure -> (variable names, compiled RK4 step)


def _gauss_step(s: PoissonStructure):
    """The RK4 step of X' = alpha(X) e as one Program, compiled once per
    structure, and the names of its variables: the stages k1 = sharp(x, a),
    k2 = sharp(x + half k1, b), k3 = sharp(x + half k2, b), k4 = sharp(x +
    du k3, c) and x + sixth (k1 + 2 k2 + 2 k3 + k4), for e = a, b, c at the
    interval's first node, midpoint and last node, in that order, so it has
    their bits."""
    if s not in _GAUSS_STEPS:
        x, a, b, c = ([ex.Var(f"{v}{i + 1}") for i in range(s.n)] for v in "xabc")
        du, half, sixth, two = ex.Var("du"), ex.Var("half"), ex.Var("sixth"), ex.Const(2.0)
        k = [s.contraction(x, a)]
        for h, e in ((half, b), (half, b), (du, c)):
            k.append(s.contraction([ex.Add(xi, ex.Mul(h, ki)) for xi, ki in zip(x, k[-1])], e))
        step = [ex.Add(xi, ex.Mul(sixth, ex.Add(ex.Add(ex.Add(k1, ex.Mul(two, k2)), ex.Mul(two, k3)), k4)))
                for xi, k1, k2, k3, k4 in zip(x, *k)]
        _GAUSS_STEPS[s] = [v.name for v in x + a + b + c + [du, half, sixth]], ex.Program(step)
    return _GAUSS_STEPS[s]


def solve_gauss(s: PoissonStructure, x0, eta: np.ndarray) -> DiscretizedMorphism:
    """Integrate X' = -alpha(X) eta_u from X(0) = x0 over the grid of eta,
    N = len(eta) - 1, by RK4 steps that take eta at each interval's
    midpoint from ``cubic_midpoints``, so the solution is fourth order in
    du. Each step is one evaluation, on Python floats, of the step that
    ``_gauss_step`` compiles from the bivector of s; every node is checked
    against the domain of s."""
    eta = np.asarray(eta, dtype=float)
    if eta.ndim != 2 or eta.shape[1] != s.n:
        raise ValueError("eta must be sampled on the grid, shape (N+1, n)")
    if len(eta) < MIN_NODES:
        raise ValueError(f"a path needs at least {MIN_NODES} nodes, got {len(eta)}")
    N = len(eta) - 1
    x = s.check_point(x0).tolist()
    du = 1.0 / N
    # alpha(x) (-eta) has the bits of -(alpha(x) eta); negating eta and
    # forming its midpoints once per path saves operations per step
    e = -eta
    e_mid = cubic_midpoints(e).tolist()
    e = e.tolist()
    names, step = _gauss_step(s)
    half, sixth = 0.5 * du, du / 6.0
    rows = [x]
    try:
        for k in range(N):
            x = ex.evaluate(step, dict(zip(names, (*x, *e[k], *e_mid[k], *e[k + 1], du, half, sixth))))
            rows.append(x)
    finally:
        # every node in one batch; the first one outside the domain is the
        # error, also where stepping on from it failed
        X = np.array(rows)
        _check_domain(s, X, "trajectory exits domain")
    return DiscretizedMorphism(n=s.n, X=X, eta=eta.copy())


def gauge_vector_field(s: PoissonStructure, m: DiscretizedMorphism,
                       beta: GaugeField) -> TangentVector:
    """Off-shell gauge vector field:
    dX^i   = -alpha^{ij} beta_j
    dEta_i = d_u beta_i + d_i alpha^{jk} eta_j beta_k - C^j d_i beta_j
    with C^j = d_u X^j + alpha^{jk} eta_k and d_u the total u-derivative
    along X(u)."""
    dX, dEta = _gauge_field(s, beta, m.u)(m.X.T, m.eta.T)
    return TangentVector(dX=dX.T, dEta=dEta.T)


def _gauge_field(s: PoissonStructure, beta: GaugeField, u: np.ndarray):
    """The gauge vector field of beta bound to the grid u: (X, eta) ->
    (dX, dEta) on arrays of shape (n, len(u)), one row per component."""
    if beta.n != s.n:
        raise ValueError("gauge field dimension mismatch")
    at, sharp, dsharp = beta.on_grid(u), s.sharp, s.dsharp

    def field(X, eta):
        Xp = path_derivative(X.T).T
        b, J, bu = at(X)
        C = [xp + a for xp, a in zip(Xp, sharp(X, eta))]
        minus_dX, term2 = sharp(X, b), dsharp(X, eta, b)
        dX, dEta = np.empty_like(Xp), np.empty_like(Xp)
        for i in range(s.n):
            dX[i] = -minus_dX[i]
            dEta[i] = (bu[i] + sum(a * v for a, v in zip(J[i], Xp)) + term2[i]
                       - sum(c * row[i] for c, row in zip(C, J)))
        return dX, dEta
    return field


def gauge_flow(s: PoissonStructure, m: DiscretizedMorphism, beta: GaugeField,
               s_steps: int = DEFAULT_FLOW_STEPS, s_total: float = 1.0,
               check_residual: bool = True) -> DiscretizedMorphism:
    """Flow a constraint solution (``require_solution`` at 1e-5) along
    the gauge vector field of beta, RK4 in the flow parameter over
    [0, s_total] in s_steps >= 1 steps. beta is bound to the grid once,
    and the stages run on (n, N+1) arrays of components."""
    if s_steps < 1:
        raise ValueError(f"gauge_flow needs at least 1 step, got {s_steps}")
    if check_residual:
        require_solution(s, m, 1e-5, "gauge_flow requires a constraint solution "
                                     "(residual above 1e-05)")
    field = _gauge_field(s, beta, m.u)
    h = s_total / s_steps
    X, eta = m.X.T.copy(), m.eta.T.copy()
    for _ in range(s_steps):
        k1x, k1e = field(X, eta)
        k2x, k2e = field(X + 0.5 * h * k1x, eta + 0.5 * h * k1e)
        k3x, k3e = field(X + 0.5 * h * k2x, eta + 0.5 * h * k2e)
        k4x, k4e = field(X + h * k3x, eta + h * k3e)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        eta = eta + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
    _check_domain(s, X.T, "gauge flow exits domain")
    return DiscretizedMorphism(n=m.n, X=X.T, eta=eta.T)


def symplectic_pairing(a: TangentVector, b: TangentVector) -> float:
    """omega(a, b) = int (a.dX^i b.dEta_i - b.dX^i a.dEta_i) du, trapezoid."""
    if a.dX.shape != b.dX.shape:
        raise ValueError("grid mismatch")
    integrand = np.sum(a.dX * b.dEta - b.dX * a.dEta, axis=1)
    return float(path_integral(integrand)[-1])


def _hamiltonian_values(s: PoissonStructure, m: DiscretizedMorphism,
                        values: np.ndarray) -> float:
    """H for nodewise covector values: int <X' + alpha eta, values> du."""
    integrand = np.sum(_constraint(s, m)[1] * values, axis=1)
    return float(path_integral(integrand)[-1])


def hamiltonian(s: PoissonStructure, m: DiscretizedMorphism,
                beta: GaugeField) -> float:
    """Moment-map Hamiltonian H_beta = int <dX + alpha eta, beta(X, u)>."""
    return _hamiltonian_values(s, m, beta.value(m.X, m.u))


def _dH(s: PoissonStructure, m: DiscretizedMorphism, beta: GaugeField,
        zeta: TangentVector) -> float:
    """dH_beta along zeta: int <zX' + alpha zEta, beta> + zX^i dsharp(X, beta,
    eta)_i + <C, d beta zX> du with C = X' + alpha eta; exact for the discrete
    H, as ``path_derivative`` and ``path_integral`` are linear."""
    X, zX = m.X.T, zeta.dX.T
    b, J, _ = beta.on_grid(m.u)(X)
    C, dC = _constraint(s, m)[1].T, path_derivative(zeta.dX).T + s.sharp(X, zeta.dEta.T)
    integrand = sum(dC[i] * b[i] + zX[i] * d + C[i] * sum(a * v for a, v in zip(J[i], zX))
                    for i, d in enumerate(s.dsharp(X, b, m.eta.T)))
    return float(path_integral(integrand)[-1])


def _random_smooth_tangent(rng, N, n, modes=4):
    """Smooth random variation: low-order Fourier series in u."""
    u = np.linspace(0.0, 1.0, N + 1)
    out = []
    for _ in range(2):
        comp = np.zeros((N + 1, n)) + rng.standard_normal(n)
        for k in range(1, modes + 1):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            comp += np.outer(np.cos(2 * np.pi * k * u), a)
            comp += np.outer(np.sin(2 * np.pi * k * u), b)
        out.append(comp)
    return TangentVector(*out)


def hamiltonian_check(s: PoissonStructure, m: DiscretizedMorphism,
                      beta: GaugeField, trials: int = 20, seed: int = 0) -> float:
    """Verify iota_{xi_beta} omega = dH_beta along trials >= 1 random smooth
    variations zeta: the max of |omega(xi_beta, zeta) - dH_beta(zeta)|. dH_beta
    is exact for the discrete H, so this is the pairing's discretization error."""
    if trials < 1:
        raise ValueError(f"hamiltonian_check needs at least 1 trial, got {trials}")
    rng = np.random.default_rng(seed)
    xi = gauge_vector_field(s, m, beta)
    return max(abs(symplectic_pairing(xi, zeta) - _dH(s, m, beta, zeta))
               for zeta in (_random_smooth_tangent(rng, m.N, m.n) for _ in range(trials)))


def koszul_bracket_values(s: PoissonStructure, beta: GaugeField,
                          gamma: GaugeField, X: np.ndarray,
                          u: np.ndarray | None = None) -> np.ndarray:
    """Koszul bracket [beta, gamma]_i = d_i alpha^{jk} beta_j gamma_k
    + alpha^{jk} (d_j beta_i gamma_k + beta_j d_k gamma_i) at points X
    (m, n); u rides along pointwise, and is None for 1-forms. By the
    antisymmetry of alpha, alpha^{jk} beta_j = -(alpha beta)^k."""
    x = np.asarray(X, dtype=float).T
    b, Jb, _ = beta.on_grid(u)(x)
    g, Jg, _ = gamma.on_grid(u)(x)
    term1, alpha_g, alpha_b = s.dsharp(x, b, g), s.sharp(x, g), s.sharp(x, b)
    return np.stack([term1[i] + sum(a * v for a, v in zip(Jb[i], alpha_g))
                     - sum(a * v for a, v in zip(Jg[i], alpha_b)) for i in range(s.n)], axis=1)


def equivariance_defect(s: PoissonStructure, m: DiscretizedMorphism,
                        beta: GaugeField, gamma: GaugeField) -> float:
    """|dH_gamma(xi_beta) - H_{[beta,gamma]}| at m (off-shell allowed),
    with dH_gamma exact for the discrete H: no flow, no step size."""
    lhs = _dH(s, m, gamma, gauge_vector_field(s, m, beta))
    return abs(lhs - _hamiltonian_values(s, m, koszul_bracket_values(s, beta, gamma, m.X, m.u)))


def concatenate(m1: DiscretizedMorphism, m2: DiscretizedMorphism,
                endpoint_tol: float = 1e-8) -> DiscretizedMorphism:
    """Doubled-speed gluing: first half runs m1 at 2u, second half m2 at
    2u - 1, with eta rescaled by 2. Representatives must match at the
    junction and have |eta| <= 1e-6 there."""
    if m1.n != m2.n or m1.N != m2.N:
        raise ValueError("grid mismatch")
    if np.linalg.norm(m1.X[-1] - m2.X[0]) > endpoint_tol:
        raise ValueError("endpoint mismatch: right end of m1 differs from "
                         "left end of m2")
    junction = max(np.linalg.norm(m1.eta[-1]), np.linalg.norm(m2.eta[0]))
    if junction > 1e-6:
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
