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
``ex.Program``, compiled from the bivector once per structure, with the
loop (``Program.loop``) that runs all its steps on Python floats.

``gauge_flow`` steps the stacked state (X; eta), shape (2n, N+1), by one
call per RK4 stage of the gauge field's ``ex.Program`` (one per structure
and beta), and doubles its step count until two successive flows agree.
``check_solution`` decides what counts as a constraint solution.
"""

from __future__ import annotations

import functools
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
    "DEFAULT_GRID", "FLOW_TOL", "FLOW_MAX_STEPS", "MIN_NODES",
]

DEFAULT_GRID = 1000
FLOW_TOL = 1e-10  # agreement of two successive gauge flows, relative to 1 + max|Y|
FLOW_MAX_STEPS = 64  # a power of two
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
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {type(data).__name__}")
        n, N = data["n"], data["N"]
        if type(n) is not int or type(N) is not int:  # not a float, not a bool
            raise ValueError(f"n and N must be integers, got {n!r} and {N!r}")
        m = cls(n=n, X=np.array(data["X"], dtype=float), eta=np.array(data["etaU"], dtype=float))
        if not (np.isfinite(m.X).all() and np.isfinite(m.eta).all()):
            raise ValueError("X and etaU must be finite")
        if m.N != N:
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
    every x_j and in u are cached, and so are all of them with each largest
    subtree whose only variable is u split out, which the gauge vector field
    compiles from and evaluates once per grid. Construction checks nothing:
    ``gauge_flow`` tests the end conditions on the path it moves. A 1-form
    is a gauge field with no u, at ``u=None``.
    """

    def __init__(self, components: Sequence[ex.Expr], n: int):
        if len(components) != n:
            raise ValueError("need one component per target dimension")
        self.n = n
        self.components = tuple(components)
        self._names = [f"x{i + 1}" for i in range(n)]
        self.dx = tuple(tuple(ex.differentiate(c, v) for v in self._names) for c in components)
        self.du = tuple(ex.differentiate(c, "u") for c in components)
        flat, parts = ex.split_out(self.components + sum(self.dx, ()) + self.du, "u")
        # beta, J[i][j] = d beta_i / d x_j and d_u beta, split out
        self._split = flat[:n], [flat[n * i:n * (i + 1)] for i in range(1, n + 1)], flat[n * (n + 1):]
        self._value_program = ex.Program(self.components)
        self._u_names, self._u_program = tuple(parts), ex.Program(parts.values())
        self._programs = weakref.WeakKeyDictionary()  # structure -> {builder: (names, Program)}

    @classmethod
    def parse(cls, sources: Sequence[str], n: int) -> "GaugeField":
        names = [f"x{i + 1}" for i in range(n)] + ["u"]
        return cls(tuple(ex.parse(s, names) for s in sources), n)

    def value(self, X, u) -> np.ndarray:
        """beta at a batch of points: X (m, n), u (m,) or None -> (m, n)."""
        return np.stack(ex.evaluate(self._value_program, self._point(X, u)), axis=1)

    def _point(self, X, u) -> dict:
        """x1..xn bound to the columns of X, shape (m, n), and u unless None."""
        point = dict(zip(self._names, np.asarray(X, dtype=float).T))
        if u is not None:
            point["u"] = np.asarray(u, dtype=float)
        return point


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


def require_solution(s: PoissonStructure, m: DiscretizedMorphism, tol: float):
    """ValueError naming the Gauss residual unless ``check_solution``
    passes m at tol."""
    res, passed = check_solution(s, m, tol)
    if not passed:
        raise ValueError(f"not a constraint solution (residual {res:g})")


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


_GAUSS_STEPS = weakref.WeakKeyDictionary()  # structure -> (variable names, RK4 step, its loop)


def _gauss_step(s: PoissonStructure):
    """The RK4 step of X' = alpha(X) e as one Program, compiled once per
    structure, the names of its variables and its ``loop``: the stages
    k1 = sharp(x, a), k2 = sharp(x + half k1, b), k3 = sharp(x + half k2,
    b), k4 = sharp(x + du k3, c) and x + sixth (k1 + 2 k2 + 2 k3 + k4), for
    e = a, b, c at the interval's first node, midpoint and last node, in
    that order, so it has their bits."""
    if s not in _GAUSS_STEPS:
        x, a, b, c = ([ex.Var(f"{v}{i + 1}") for i in range(s.n)] for v in "xabc")
        du, half, sixth, two = ex.Var("du"), ex.Var("half"), ex.Var("sixth"), ex.Const(2.0)
        k = [s.contraction(x, a)]
        for h, e in ((half, b), (half, b), (du, c)):
            k.append(s.contraction([ex.Add(xi, ex.Mul(h, ki)) for xi, ki in zip(x, k[-1])], e))
        step = [ex.Add(xi, ex.Mul(sixth, ex.Add(ex.Add(ex.Add(k1, ex.Mul(two, k2)), ex.Mul(two, k3)), k4)))
                for xi, k1, k2, k3, k4 in zip(x, *k)]
        names, step = [[v.name for v in vs] for vs in (x, a, b, c)], ex.Program(step)
        _GAUSS_STEPS[s] = sum(names, ["du", "half", "sixth"]), step, step.loop(names[0], names[1:])
    return _GAUSS_STEPS[s]


def solve_gauss(s: PoissonStructure, x0, eta: np.ndarray) -> DiscretizedMorphism:
    """Integrate X' = -alpha(X) eta_u from X(0) = x0 over the grid of eta,
    N = len(eta) - 1, by RK4 steps that take eta at each interval's
    midpoint from ``cubic_midpoints``, so the solution is fourth order in
    du. The N steps are one run, on Python floats, of the loop that
    ``_gauss_step`` compiles from the bivector of s. The first node outside
    the domain of s up to the first step that fails (raises, or gives a
    node that is not finite) is the error, else that step's DomainError."""
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
    names, step, loop = _gauss_step(s)
    p = {"du": du, "half": 0.5 * du, "sixth": du / 6.0}
    X = np.array(x + loop(x, (e, e_mid, e[1:]), p)).reshape(-1, s.n)
    k = min([len(X) - 1, *np.flatnonzero(~np.isfinite(X[1:]).all(axis=1))])  # the first step that failed
    if k < N:  # evaluated alone, that step raises its DomainError
        _check_domain(s, X[:k + 1], "trajectory exits domain")
        ex.evaluate(step, dict(zip(names, (*p.values(), *X[k].tolist(), *e[k], *e_mid[k], *e[k + 1]))))
    _check_domain(s, X, "trajectory exits domain")
    return DiscretizedMorphism(n=s.n, X=X, eta=eta.copy())


def _compiled(build, prefixes: str, s: PoissonStructure, beta: GaugeField):
    """The names of the variables v1..vn, v in ``prefixes``, and the Program of
    the roots build(s, beta, *variables), compiled once per structure and kept
    by beta, keyed weakly on the structure."""
    if beta.n != s.n:
        raise ValueError("gauge field dimension mismatch")
    programs = beta._programs.setdefault(s, {})
    if build not in programs:
        variables = [[ex.Var(f"{v}{i + 1}") for i in range(s.n)] for v in prefixes]
        programs[build] = [v.name for row in variables for v in row], ex.Program(build(s, beta, *variables))
    return programs[build]


def _dot(a, b) -> ex.Expr:
    """sum(ai * bi) as Python's ``sum`` adds it: from 0, in order."""
    return functools.reduce(ex.Add, map(ex.Mul, a, b), ex.Const(0.0))


def _field(s: PoissonStructure, beta: GaugeField, x, e, p) -> list:
    """(dX; dEta) of ``gauge_vector_field`` at X = x, eta = e and X' = p from
    beta's split-out expressions, in the order of operations, and so with
    the bits, of sharp(x, e), sharp(x, beta) and dsharp(x, e, beta) summed."""
    b, J, bu = beta._split
    C = [ex.Add(pi, a) for pi, a in zip(p, s.contraction(x, e))]
    return [ex.Neg(v) for v in s.contraction(x, b)] + [
        ex.Sub(ex.Add(ex.Add(bu[i], _dot(J[i], p)), d), _dot(C, [row[i] for row in J]))
        for i, d in enumerate(s.dcontraction(e, b))]


def _dH_integrand(s: PoissonStructure, beta: GaugeField, x, e, p, y, q, z) -> list:
    """The integrand of ``_dH`` at X = x, eta = e, X' = p, zX = y, zX' = q and
    zEta = z, in the order of operations, and so with the bits, of the
    constraint, sharp(x, z), dsharp(x, beta, e) and the Jacobian summed."""
    C = [ex.Add(pi, a) for pi, a in zip(p, s.contraction(x, e))]
    dC = [ex.Add(qi, a) for qi, a in zip(q, s.contraction(x, z))]
    b, J = beta.components, beta.dx
    return [functools.reduce(ex.Add, [
        ex.Add(ex.Add(ex.Mul(dC[i], b[i]), ex.Mul(y[i], d)), ex.Mul(C[i], _dot(J[i], y)))
        for i, d in enumerate(s.dcontraction(b, e))], ex.Const(0.0))]


def gauge_vector_field(s: PoissonStructure, m: DiscretizedMorphism,
                       beta: GaugeField) -> TangentVector:
    """Off-shell gauge vector field:
    dX^i   = -alpha^{ij} beta_j
    dEta_i = d_u beta_i + d_i alpha^{jk} eta_j beta_k - C^j d_i beta_j
    with C^j = d_u X^j + alpha^{jk} eta_k and d_u the total u-derivative
    along X(u)."""
    v = _gauge_field(s, beta, m.u)(np.concatenate([m.X.T, m.eta.T]))
    return TangentVector(dX=v[:s.n].T, dEta=v[s.n:].T)


def _gauge_field(s: PoissonStructure, beta: GaugeField, u: np.ndarray):
    """The gauge vector field of beta bound to the grid u: Y = (X; eta) ->
    (dX; dEta) on arrays of shape (2n, len(u)), one row per component, by
    one ``ex.evaluate`` of ``_field``'s Program, the u-parts evaluated once."""
    names, program = _compiled(_field, "xep", s, beta)
    point, n = dict(zip(beta._u_names, ex.evaluate(beta._u_program, beta._point((), u)))), s.n

    def field(Y):
        point.update(zip(names, (*Y, *path_derivative(Y[:n].T).T)))
        return np.array(ex.evaluate(program, point))
    return field


def gauge_flow(s: PoissonStructure, m: DiscretizedMorphism, beta: GaugeField,
               s_total: float = 1.0) -> DiscretizedMorphism:
    """Flow a constraint solution (``require_solution`` at 1e-5) along the
    gauge field of beta over [0, s_total] by k = 1, 2, 4, ..., FLOW_MAX_STEPS RK4
    steps on Y = (X; eta), to the first flow within FLOW_TOL (1 + max|Y|) of the last.
    beta must vanish at the path's first node at u = 0 and its last at u = 1,
    to 1e-12 max(1, max|X|) there, so that dX = -alpha(X) beta keeps both ends."""
    if not np.isfinite(s_total):
        raise ValueError(f"gauge_flow needs a finite s_total, got {s_total}")
    if FLOW_MAX_STEPS < 1:
        raise ValueError(f"gauge_flow needs at least 1 step, got {FLOW_MAX_STEPS}")
    if FLOW_MAX_STEPS & (FLOW_MAX_STEPS - 1):
        raise ValueError(f"gauge_flow needs a power of two for FLOW_MAX_STEPS, got {FLOW_MAX_STEPS}")
    require_solution(s, m, 1e-5)
    field, start = _gauge_field(s, beta, m.u), np.concatenate([m.X.T, m.eta.T])
    for u_end, x, b in zip((0, 1), m.X[[0, -1]], beta.value(m.X[[0, -1]], np.array([0.0, 1.0]))):
        if not np.max(np.abs(b)) <= 1e-12 * max(1.0, np.max(np.abs(x))):
            raise ValueError(f"gauge field does not vanish at u = {u_end}")
    previous = np.full_like(start, np.nan)  # agrees with no flow
    for steps in (2 ** k for k in range(FLOW_MAX_STEPS.bit_length())):
        h, Y = s_total / steps, start
        try:
            for _ in range(steps):
                k1 = field(Y)
                k2 = field(Y + 0.5 * h * k1)
                k3 = field(Y + 0.5 * h * k2)
                k4 = field(Y + h * k3)
                Y = Y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        except ex.DomainError:  # a coarse flow may leave a domain that finer ones keep to
            if steps == FLOW_MAX_STEPS:
                raise
            continue
        if np.max(np.abs(Y - previous)) <= FLOW_TOL * (1.0 + np.max(np.abs(Y))):
            break
        previous = Y
    _check_domain(s, Y[:s.n].T, "gauge flow exits domain")
    return DiscretizedMorphism(n=m.n, X=Y[:s.n].T, eta=Y[s.n:].T)


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
    names, program = _compiled(_dH_integrand, "xepyqz", s, beta)
    point = dict(zip(names, (*m.X.T, *m.eta.T, *path_derivative(m.X).T,
                             *zeta.dX.T, *path_derivative(zeta.dX).T, *zeta.dEta.T)), u=m.u)
    return float(path_integral(ex.evaluate(program, point)[0])[-1])


def _basis_tangents(N: int, n: int) -> list:
    """The tangents zeta of ``hamiltonian_check``, column by column."""
    u = np.linspace(0.0, 1.0, N + 1)
    waves = [np.ones_like(u)] + [f(2 * np.pi * k * u) for f in (np.cos, np.sin) for k in range(1, 5)]
    columns = [np.where(np.arange(2 * n) == j, w[:, None], 0.0) for j in range(2 * n) for w in waves]
    return [TangentVector(Z[:, :n], Z[:, n:]) for Z in columns]


def hamiltonian_check(s: PoissonStructure, m: DiscretizedMorphism, beta: GaugeField) -> float:
    """The pairing's discretization error in iota_{xi_beta} omega = dH_beta
    (dH_beta is exact for the discrete H): the max of |omega(xi_beta, zeta)
    - dH_beta(zeta)| over the 18 n zeta with one nonzero column, of dX or
    dEta, equal to 1, cos 2 pi k u or sin 2 pi k u (k = 1..4). The defect is
    linear in zeta, so on sum c_k zeta_k it is at most that max times sum |c_k|."""
    xi = gauge_vector_field(s, m, beta)
    return max(abs(symplectic_pairing(xi, zeta) - _dH(s, m, beta, zeta))
               for zeta in _basis_tangents(m.N, m.n))


def koszul_bracket_values(s: PoissonStructure, beta: GaugeField,
                          gamma: GaugeField, X: np.ndarray,
                          u: np.ndarray | None = None) -> np.ndarray:
    """Koszul bracket [beta, gamma]_i = d_i alpha^{jk} beta_j gamma_k
    + alpha^{jk} (d_j beta_i gamma_k + beta_j d_k gamma_i) at points X
    (m, n); u rides along pointwise, and is None for 1-forms. By the
    antisymmetry of alpha, alpha^{jk} beta_j = -(alpha beta)^k. One Program,
    built as ``_field``'s is and compiled per call."""
    if beta.n != s.n or gamma.n != s.n:
        raise ValueError("gauge field dimension mismatch")
    x, b, g = [ex.Var(v) for v in beta._names], beta.components, gamma.components
    alpha_g, alpha_b = s.contraction(x, g), s.contraction(x, b)
    program = ex.Program([ex.Sub(ex.Add(t, _dot(beta.dx[i], alpha_g)), _dot(gamma.dx[i], alpha_b))
                          for i, t in enumerate(s.dcontraction(b, g))])
    return np.stack(ex.evaluate(program, beta._point(X, u)), axis=1)


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
    if not np.linalg.norm(m1.X[-1] - m2.X[0]) <= endpoint_tol:
        raise ValueError("endpoint mismatch: right end of m1 differs from "
                         "left end of m2")
    junction = np.maximum(np.linalg.norm(m1.eta[-1]), np.linalg.norm(m2.eta[0]))
    if not junction <= 1e-6:
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
