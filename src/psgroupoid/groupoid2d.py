"""Explicit symplectic groupoid of a 2D Poisson domain (U, eps^{ij} phi):
coordinates (x, pi), the final-point map x_f, the cocycle h, the bracket
function psi, membership, product, inverse, projections, the bivector P
and its inverse symplectic form, the axiom verification report, and the
bridge to path space (embed / invariants).

Orientation is fixed once as eps^{12} = +1, so

    x_f^1 = x^1 - phi(x) pi_2,   x_f^2 = x^2 + phi(x) pi_1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import pathspace as ps
from .poisson import PoissonStructure, two_domain

__all__ = [
    "Phi2D", "Domain2D", "GroupoidPoint2D",
    "x_f", "h_map", "psi", "contains", "left", "right",
    "multiply", "inverse", "bivector", "symplectic_form",
    "printed_form_matrix", "printed_form_discrepancy",
    "embed", "invariants", "sample_points", "sample_composable_pairs",
    "verify_axioms", "AXIOM_TOLERANCES",
]

BRANCH_SWITCH = 1e-9
RAY_NODES = 256   # pieces of the ray enclosed at the first level of contains
RAY_DEPTH = 40    # bisections after which contains leaves a piece undecided
RAY_MAX_PIECES = 1 << 16  # bound on the pieces contains keeps open at once


class Phi2D:
    """phi(x1, x2) and its cached partials, at x = (x1, x2) of numbers or arrays."""

    def __init__(self, phi: ex.Expr):
        self.phi = phi
        self.d1 = ex.differentiate(phi, "x1")
        self.d2 = ex.differentiate(phi, "x2")
        self.d11 = ex.differentiate(self.d1, "x1")
        self.d12 = ex.differentiate(self.d1, "x2")
        self.d22 = ex.differentiate(self.d2, "x2")

    @classmethod
    def parse(cls, source: str) -> "Phi2D":
        return cls(ex.parse(source, ["x1", "x2"]))

    def __call__(self, x) -> float:
        return ex.evaluate(self.phi, {"x1": x[0], "x2": x[1]})

    def grad(self, x) -> np.ndarray:
        p = {"x1": x[0], "x2": x[1]}
        return np.array([ex.evaluate(self.d1, p), ex.evaluate(self.d2, p)])

    def hessian(self, x) -> np.ndarray:
        p = {"x1": x[0], "x2": x[1]}
        h11 = ex.evaluate(self.d11, p)
        h12 = ex.evaluate(self.d12, p)
        h22 = ex.evaluate(self.d22, p)
        return np.array([[h11, h12], [h12, h22]])

    def structure(self, domain: "Domain2D | None" = None) -> PoissonStructure:
        in_domain = domain.contains_point if domain is not None else None
        return two_domain(self.phi, in_domain=in_domain)


@dataclass(frozen=True)
class Domain2D:
    """Open axis-aligned rectangle; membership is strict."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float

    def __post_init__(self):
        if not (self.xmin < self.xmax and self.ymin < self.ymax):
            raise ValueError("degenerate rectangle")

    def contains_point(self, x) -> bool:
        return bool(self.xmin < x[0] < self.xmax and self.ymin < x[1] < self.ymax)


@dataclass(frozen=True)
class GroupoidPoint2D:
    x: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float).reshape(2))
        object.__setattr__(self, "pi", np.asarray(self.pi, dtype=float).reshape(2))


def x_f(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """Final point x_f^i = x^i - phi(x) eps^{ij} pi_j."""
    phi = p(g.x)
    return np.array([g.x[0] - phi * g.pi[1], g.x[1] + phi * g.pi[0]])


def h_map(p: Phi2D, g: GroupoidPoint2D, switch: float = BRANCH_SWITCH) -> float:
    """Cocycle h = phi(x_f)/phi(x), extended across the zero locus by
    1 - pi_2 d1(phi) + pi_1 d2(phi)."""
    phi = p(g.x)
    if abs(phi) < switch:
        grad = p.grad(g.x)
        return 1.0 - g.pi[1] * grad[0] + g.pi[0] * grad[1]
    return p(x_f(p, g)) / phi


def psi(p: Phi2D, g: GroupoidPoint2D, switch: float = BRANCH_SWITCH) -> float:
    """{pi_1, pi_2}: (1 + pi_1 d2(phi) - pi_2 d1(phi) - h)/phi off the
    zero locus, the second-order Taylor value on it."""
    phi = p(g.x)
    if abs(phi) < switch:
        hess = p.hessian(g.x)
        return (g.pi[0] * g.pi[1] * hess[0, 1]
                - 0.5 * g.pi[0] ** 2 * hess[1, 1]
                - 0.5 * g.pi[1] ** 2 * hess[0, 0])
    grad = p.grad(g.x)
    return (1.0 + g.pi[0] * grad[1] - g.pi[1] * grad[0] - h_map(p, g, switch)) / phi


def contains(p: Phi2D, d: Domain2D, g: GroupoidPoint2D) -> bool:
    """Membership in the groupoid: along the straight ray t -> (x, t pi),
    t in [0, 1], the connectivity witness, h must stay positive and x_f
    must stay inside the rectangle. The test is exact:

    * x_f(t) = x + t phi(x) v with v = (-pi_2, pi_1) runs along a
      straight segment, and the rectangle is convex, so the segment
      stays inside iff both of its ends do;
    * where |phi(x)| < BRANCH_SWITCH, h is linear in t (the zero-locus
      branch of ``h_map``), so h > 0 along the ray iff h(1) > 0;
    * otherwise h(t) = phi(x_f(t)) / phi(x), so h > 0 along the ray iff
      s phi > 0 on the segment, with s = sign(phi(x)). That is decided
      from phi at RAY_NODES + 1 evenly spaced nodes, a node with
      s phi <= 0 being a witness of non-membership, then from interval
      enclosures of phi on the pieces between nodes, bisecting the pieces
      whose enclosure does not exclude 0.

    A piece still undecided after RAY_DEPTH bisections makes the answer
    "not a member". The groupoid is open, so such a point lies within
    rounding of its boundary. So does a ray that would need more than
    RAY_MAX_PIECES open pieces at once, which bounds time and memory; that
    happens only where the enclosures of phi overestimate its range by
    orders of magnitude, as for 1e7*(x1 - x1) + 1. Where phi is undefined
    on the ray, the ray leaves its domain: "not a member"."""
    try:
        return _contains(p, d, g)
    except ex.DomainError:
        return False


def _contains(p: Phi2D, d: Domain2D, g: GroupoidPoint2D) -> bool:
    if not d.contains_point(g.x):
        return False
    phi0 = p(g.x)
    if not d.contains_point(_ray_points(g, phi0, 1.0)):
        return False
    if abs(phi0) < BRANCH_SWITCH:
        return h_map(p, g) > 0.0
    sign = np.sign(phi0)
    ts = np.linspace(0.0, 1.0, RAY_NODES + 1)

    def positive_at(t):
        return bool(np.all(sign * p(_ray_points(g, phi0, t)) > 0.0))

    def certified(lo_t, hi_t):
        # each coordinate is monotone in t, so its ends bound it on a piece
        a, b = _ray_points(g, phi0, lo_t), _ray_points(g, phi0, hi_t)
        box = {name: (np.nextafter(np.minimum(u, w), -np.inf),
                      np.nextafter(np.maximum(u, w), np.inf))
               for name, u, w in zip(("x1", "x2"), a, b)}
        lo, hi = ex.evaluate_interval(p.phi, box)
        return np.minimum(sign * lo, sign * hi) > 0.0

    if not positive_at(ts):
        return False
    lo_t, hi_t = ts[:-1], ts[1:]
    for _ in range(RAY_DEPTH):
        undecided = ~certified(lo_t, hi_t)
        if not undecided.any():
            return True
        if 2 * np.count_nonzero(undecided) > RAY_MAX_PIECES:
            return False
        lo_t, hi_t = lo_t[undecided], hi_t[undecided]
        mid = 0.5 * (lo_t + hi_t)
        if not positive_at(mid):
            return False
        lo_t, hi_t = np.concatenate([lo_t, mid]), np.concatenate([mid, hi_t])
    return bool(np.all(certified(lo_t, hi_t)))


def _ray_points(g: GroupoidPoint2D, phi0: float, t):
    """x_f(x, t pi) as a pair (x1, x2), for a number or an array of t;
    at t = 1 this is x_f(g) to the bit."""
    return g.x[0] - phi0 * (t * g.pi[1]), g.x[1] + phi0 * (t * g.pi[0])


def left(g: GroupoidPoint2D) -> np.ndarray:
    return g.x.copy()


def right(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    return x_f(p, g)


def multiply(p: Phi2D, g: GroupoidPoint2D, g2: GroupoidPoint2D,
             tol: float = 1e-8) -> GroupoidPoint2D:
    """(x, pi) . (x~, pi~) = (x, pi + h(x, pi) pi~) for composable pairs."""
    if np.linalg.norm(right(p, g) - g2.x) > tol:
        raise ValueError("points are not composable: right(g) != left(g2)")
    return GroupoidPoint2D(g.x, g.pi + h_map(p, g) * g2.pi)


def inverse(p: Phi2D, g: GroupoidPoint2D) -> GroupoidPoint2D:
    """g^{-1} = (x_f(g), -pi / h(g)); solves pi + h pi~ = 0."""
    return GroupoidPoint2D(x_f(p, g), -g.pi / h_map(p, g))


def _x_f_jacobian(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """d x_f / d (x1, x2, pi1, pi2), exact."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    pi1, pi2 = g.pi
    return np.array([
        [1.0 - d1 * pi2, -d2 * pi2, 0.0, -phi],
        [d1 * pi1, 1.0 + d2 * pi1, phi, 0.0],
    ])


def _h_gradient(p: Phi2D, g: GroupoidPoint2D,
                switch: float = BRANCH_SWITCH) -> np.ndarray:
    """d h / d (x1, x2, pi1, pi2), exact on both branches."""
    phi = p(g.x)
    grad = p.grad(g.x)
    Jf = _x_f_jacobian(p, g)
    if abs(phi) < switch:
        hess = p.hessian(g.x)
        dh = np.zeros(4)
        dh[:2] = -g.pi[1] * hess[0] + g.pi[0] * hess[1]
        dh[2] = grad[1]
        dh[3] = -grad[0]
        return dh
    xf = x_f(p, g)
    grad_f = p.grad(xf)
    dh = (grad_f @ Jf) / phi
    dh[:2] -= (p(xf) / phi ** 2) * grad
    return dh


def inversion_jacobian(p: Phi2D, g: GroupoidPoint2D,
                       switch: float = BRANCH_SWITCH) -> np.ndarray:
    """Exact Jacobian of (x, pi) -> (x_f, -pi/h)."""
    h = h_map(p, g, switch)
    dh = _h_gradient(p, g, switch)
    J = np.zeros((4, 4))
    J[:2] = _x_f_jacobian(p, g)
    J[2:] = np.outer(g.pi, dh) / h ** 2
    J[2, 2] -= 1.0 / h
    J[3, 3] -= 1.0 / h
    return J


def bivector(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """Poisson bivector P in the coordinate basis (x1, x2, pi1, pi2):
    {x1, x2} = phi, {x^i, pi_j} = -delta^i_j - pi_j eps^{ik} d_k phi,
    {pi_1, pi_2} = psi."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    ps_ = psi(p, g)
    pi1, pi2 = g.pi
    P = np.zeros((4, 4))
    P[0, 1] = phi
    P[0, 2] = -1.0 - pi1 * d2
    P[0, 3] = -pi2 * d2
    P[1, 2] = pi1 * d1
    P[1, 3] = -1.0 + pi2 * d1
    P[2, 3] = ps_
    return P - P.T


def symplectic_form(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """omega_G as the exact matrix inverse of the bivector, so that
    omega . P = I by construction (P is invertible on the groupoid
    because h > 0)."""
    return np.linalg.inv(bivector(p, g))


def printed_form_matrix(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """A transcribed closed-form expression for the 2-form, kept only
    for the term-by-term cross-check against inv(P). One of the two
    dx2^dpi2 coefficients is suspected to be a typo for dx1^dpi2."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    h = h_map(p, g)
    ps_ = psi(p, g)
    pi1, pi2 = g.pi
    W = np.zeros((4, 4))
    W[0, 1] = ps_
    W[0, 2] = 1.0 - pi2 * d1
    W[1, 3] = pi1 * d1 + (1.0 + pi1 * d2)
    W[1, 2] = -pi2 * d2
    W[2, 3] = -phi
    return (W - W.T) / h


def printed_form_discrepancy(p: Phi2D, g: GroupoidPoint2D) -> dict:
    """Entrywise |inv(P) - printed form|, keyed by coordinate pair."""
    names = ("x1", "x2", "pi1", "pi2")
    diff = symplectic_form(p, g) - printed_form_matrix(p, g)
    out = {}
    for a in range(4):
        for b in range(a + 1, 4):
            out[f"d{names[a]}^d{names[b]}"] = float(abs(diff[a, b]))
    return out


# ---------------------------------------------------------------------------
# Bridge to path space

def embed(p: Phi2D, g: GroupoidPoint2D, N: int = ps.DEFAULT_GRID,
          tapered: bool = False,
          domain: Domain2D | None = None) -> ps.DiscretizedMorphism:
    """Straight-line representative of (x, pi): X(u) = x + u phi(x)
    (-pi_2, pi_1), constant E = pi, eta recovered as eta = E / H with
    H(u) = 1 + int_0^u (d2 phi E_1 - d1 phi E_2).

    With ``tapered`` the path is reparametrized by u -> 3u^2 - 2u^3 so
    that eta vanishes at the endpoints (for concatenation)."""
    u = np.linspace(0.0, 1.0, N + 1)
    if tapered:
        # quintic smoothstep: rate and its derivative vanish at the ends,
        # so glued paths stay C^2 at the junction
        scale = u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)
        rate = 30.0 * u ** 2 * (1.0 - u) ** 2
    else:
        scale = u
        rate = np.ones_like(u)
    phi0 = p(g.x)
    direction = phi0 * np.array([-g.pi[1], g.pi[0]])
    X = g.x[None, :] + scale[:, None] * direction[None, :]
    if domain is not None:
        for k, x in enumerate(X):
            if not domain.contains_point(x):
                raise ValueError(f"straight segment exits the domain at node {k}")
    g1, g2 = p.grad(X.T)
    that = (g2 * g.pi[0] - g1 * g.pi[1]) * rate  # dH/du along the path
    H = 1.0 + _cumtrapz(that, u)
    if np.min(H) <= 0.0:
        raise ValueError("H(u) <= 0 along the representative; "
                         "(x, pi) is not in the groupoid")
    eta = (rate / H)[:, None] * g.pi[None, :]
    return ps.DiscretizedMorphism(n=2, X=X, eta=eta)


def _cumtrapz(y, x):
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def invariants(p: Phi2D, m: ps.DiscretizedMorphism,
               residual_tol: float = 1e-4,
               structure: PoissonStructure | None = None) -> GroupoidPoint2D:
    """Recover (x, pi) from a constraint solution: x = X(0),
    H = exp int T with T = d2 phi eta_1 - d1 phi eta_2, and
    pi_i = int eta_i H."""
    if structure is None:
        structure = p.structure()
    res = ps.gauss_residual(structure, m)
    if res > residual_tol:
        raise ValueError(f"not a constraint solution (residual {res:g})")
    u = m.u
    g1, g2 = p.grad(m.X.T)
    T = g2 * m.eta[:, 0] - g1 * m.eta[:, 1]
    H = np.exp(_cumtrapz(T, u))
    pi = np.trapezoid(m.eta * H[:, None], dx=1.0 / m.N, axis=0)
    return GroupoidPoint2D(m.X[0], pi)


# ---------------------------------------------------------------------------
# Sampling and the axiom report

def sample_points(p: Phi2D, d: Domain2D, count: int, rng,
                  pi_box: float = 1.0, max_tries: int = 200000):
    """Rejection-sample groupoid points with x in the rectangle and pi
    in [-pi_box, pi_box]^2."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("sampling failed to find enough groupoid points")
        x = np.array([rng.uniform(d.xmin, d.xmax), rng.uniform(d.ymin, d.ymax)])
        pi = rng.uniform(-pi_box, pi_box, size=2)
        g = GroupoidPoint2D(x, pi)
        if contains(p, d, g):
            out.append(g)
    return out


def sample_composable_pairs(p: Phi2D, d: Domain2D, count: int, rng,
                            pi_box: float = 1.0, max_tries: int = 200000):
    """Composable pairs (g, g2) with left(g2) = right(g)."""
    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise RuntimeError("sampling failed to find enough composable pairs")
        x = np.array([rng.uniform(d.xmin, d.xmax), rng.uniform(d.ymin, d.ymax)])
        pi = rng.uniform(-pi_box, pi_box, size=2)
        g = GroupoidPoint2D(x, pi)
        if not contains(p, d, g):
            continue
        x2 = x_f(p, g)
        pi2 = rng.uniform(-pi_box, pi_box, size=2)
        g2 = GroupoidPoint2D(x2, pi2)
        if contains(p, d, g2):
            out.append((g, g2))
    return out


AXIOM_TOLERANCES = {
    "identity_left_right": 1e-12,
    "identity_elements": 1e-12,
    "inverse": 1e-12,
    "associativity": 1e-12,
    "cocycle": 1e-12,
    "right_of_product": 1e-12,
    "omega_inverse": 1e-9,
    "jacobi_P": 1e-4,
    "d_omega": 1e-4,
    "left_poisson": 1e-9,
    "right_anti_poisson": 1e-9,
    "inversion_anti_poisson": 1e-6,
    "product_pullback": 1e-4,
}


def _fd_jacobian(func, z, step=1e-6):
    z = np.asarray(z, dtype=float)
    f0 = np.asarray(func(z))
    J = np.zeros((f0.size, z.size))
    for k in range(z.size):
        dz = np.zeros_like(z)
        dz[k] = step
        J[:, k] = (np.asarray(func(z + dz)) - np.asarray(func(z - dz))) / (2 * step)
    return J


def _bivector_derivative(p, g, step=1e-5):
    """dP[d, a, b] = d_d P^{ab} by central differences."""
    z0 = np.concatenate([g.x, g.pi])

    def P_at(z):
        return bivector(p, GroupoidPoint2D(z[:2], z[2:]))

    dP = np.zeros((4, 4, 4))
    for dcoord in range(4):
        dz = np.zeros(4)
        dz[dcoord] = step
        dP[dcoord] = (P_at(z0 + dz) - P_at(z0 - dz)) / (2 * step)
    return dP


def _jacobi_P_defect(P, dP):
    term = np.einsum("ad,dbc->abc", P, dP)
    cyc = term + np.transpose(term, (1, 2, 0)) + np.transpose(term, (2, 0, 1))
    return float(np.max(np.abs(cyc)))


def _d_omega_defect(W, dP):
    # omega = inv(P), so d omega = -W (dP) W exactly; differencing omega
    # itself needs a step small enough for its steep third derivatives
    # where h is small, and no single step serves every point
    dW = -np.einsum("ab,dbc,ce->dae", W, dP, W)
    # (d omega)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}
    d_omega = dW - np.transpose(dW, (1, 0, 2)) + np.transpose(dW, (1, 2, 0))
    return float(np.max(np.abs(d_omega)))


def verify_axioms(p: Phi2D, d: Domain2D, samples: int = 100, seed: int = 0,
                  tolerances: dict | None = None, pi_box: float = 1.0) -> dict:
    """Numeric verification of the groupoid axioms; returns a report
    {check: {"max_dev": float, "tol": float, "passed": bool,
    "worst_point": [...]}}."""
    tol = dict(AXIOM_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    rng = np.random.default_rng(seed)
    points = sample_points(p, d, samples, rng, pi_box=pi_box)
    pairs = sample_composable_pairs(p, d, samples, rng, pi_box=pi_box)

    report = {}

    def record(name, dev, where):
        entry = report.setdefault(
            name, {"max_dev": -1.0, "tol": tol[name], "worst_point": None})
        if dev > entry["max_dev"]:
            entry["max_dev"] = float(dev)
            entry["worst_point"] = [float(v) for v in np.ravel(where)]

    # (i) l(j(x)) = r(j(x)) = x  and  (iii) identities
    for g in points:
        jx = GroupoidPoint2D(g.x, np.zeros(2))
        record("identity_left_right",
               max(np.max(np.abs(left(jx) - g.x)),
                   np.max(np.abs(right(p, jx) - g.x))), g.x)
        gr = multiply(p, g, GroupoidPoint2D(right(p, g), np.zeros(2)))
        gl = multiply(p, GroupoidPoint2D(g.x, np.zeros(2)), g)
        dev = max(np.max(np.abs(gr.pi - g.pi)), np.max(np.abs(gr.x - g.x)),
                  np.max(np.abs(gl.pi - g.pi)), np.max(np.abs(gl.x - g.x)))
        record("identity_elements", dev, np.concatenate([g.x, g.pi]))

    # (iv) inverses
    for g in points:
        gi = inverse(p, g)
        prod = multiply(p, g, gi)
        prod2 = multiply(p, gi, g, tol=1e-6)
        dev = max(np.max(np.abs(prod.pi)), np.max(np.abs(prod.x - g.x)),
                  np.max(np.abs(prod2.pi)),
                  np.max(np.abs(prod2.x - x_f(p, g))))
        record("inverse", dev, np.concatenate([g.x, g.pi]))

    # (ii)+(v) products: target of product, cocycle, associativity
    for g, g2 in pairs:
        prod = multiply(p, g, g2)
        record("right_of_product",
               np.max(np.abs(right(p, prod) - right(p, g2))),
               np.concatenate([g.x, g.pi, g2.pi]))
        hprod = h_map(p, prod)
        hh = h_map(p, g) * h_map(p, g2)
        record("cocycle", abs(hprod - hh) / max(1.0, abs(hh)),
               np.concatenate([g.x, g.pi, g2.pi]))
        # extend to a composable triple with pi3 drawn fresh
        g3 = GroupoidPoint2D(right(p, g2),
                             rng.uniform(-pi_box, pi_box, size=2))
        if contains(p, d, g3):
            lhs = multiply(p, multiply(p, g, g2), g3, tol=1e-6)
            rhs = multiply(p, g, multiply(p, g2, g3), tol=1e-6)
            record("associativity", np.max(np.abs(lhs.pi - rhs.pi)),
                   np.concatenate([g.x, g.pi, g2.pi, g3.pi]))

    # (vii')-(x): symplectic checks
    for g in points:
        P = bivector(p, g)
        W = symplectic_form(p, g)
        record("omega_inverse", np.max(np.abs(W @ P - np.eye(4))),
               np.concatenate([g.x, g.pi]))
        dP = _bivector_derivative(p, g)
        record("jacobi_P", _jacobi_P_defect(P, dP), np.concatenate([g.x, g.pi]))
        record("d_omega", _d_omega_defect(W, dP), np.concatenate([g.x, g.pi]))

        # (viii) l Poisson, r anti-Poisson, with analytic gradients
        phi_x = p(g.x)
        record("left_poisson", abs(P[0, 1] - phi_x), np.concatenate([g.x, g.pi]))
        xf = x_f(p, g)
        grad = p.grad(g.x)
        dr1 = np.array([1.0 - grad[0] * g.pi[1], -grad[1] * g.pi[1], 0.0, -phi_x])
        dr2 = np.array([grad[0] * g.pi[0], 1.0 + grad[1] * g.pi[0], phi_x, 0.0])
        bracket_r = dr1 @ P @ dr2
        record("right_anti_poisson", abs(bracket_r + p(xf)),
               np.concatenate([g.x, g.pi]))

        # (x) inversion is anti-Poisson; use the exact Jacobian since the
        # map is steep where h is small and finite differences lose digits
        J = inversion_jacobian(p, g)
        P_inv_pt = bivector(p, inverse(p, g))
        record("inversion_anti_poisson",
               np.max(np.abs(J @ P @ J.T + P_inv_pt)),
               np.concatenate([g.x, g.pi]))

    # (ix) P* omega = pi1* omega + pi2* omega on composable pairs,
    # parametrized by c = (x, pi, pi2) in R^6
    for g, g2 in pairs[: max(1, len(pairs) // 2)]:
        c0 = np.concatenate([g.x, g.pi, g2.pi])

        def prod_map(c):
            gg = GroupoidPoint2D(c[:2], c[2:4])
            gg2 = GroupoidPoint2D(x_f(p, gg), c[4:6])
            out = multiply(p, gg, gg2, tol=np.inf)
            return np.concatenate([out.x, out.pi])

        def first_map(c):
            return np.concatenate([c[:2], c[2:4]])

        def second_map(c):
            gg = GroupoidPoint2D(c[:2], c[2:4])
            return np.concatenate([x_f(p, gg), c[4:6]])

        def pullback(mapper, c):
            J = _fd_jacobian(mapper, c)
            z = mapper(c)
            W = symplectic_form(p, GroupoidPoint2D(z[:2], z[2:]))
            return J.T @ W @ J

        lhs = pullback(prod_map, c0)
        rhs = pullback(first_map, c0) + pullback(second_map, c0)
        record("product_pullback", np.max(np.abs(lhs - rhs)),
               np.concatenate([g.x, g.pi, g2.pi]))

    for name, entry in report.items():
        entry["passed"] = bool(entry["max_dev"] <= entry["tol"])
    return report
