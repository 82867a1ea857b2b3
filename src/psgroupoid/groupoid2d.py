"""Explicit symplectic groupoid of a 2D Poisson domain (U, eps^{ij} phi):
coordinates (x, pi), the final-point map x_f, the cocycle h, the bracket
function psi, membership, product, inverse, projections, the bivector P
and its inverse symplectic form, the axiom verification report, and the
bridge to path space (embed / invariants).

Orientation is fixed once as eps^{12} = +1, so

    x_f^1 = x^1 - phi(x) pi_2,   x_f^2 = x^2 + phi(x) pi_1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from . import pathspace as ps
from .poisson import PoissonStructure, two_domain

__all__ = [
    "Phi2D", "Domain2D", "GroupoidPoint2D",
    "x_f", "h_map", "psi", "contains", "left", "right",
    "multiply", "inverse", "bivector", "symplectic_form",
    "embed", "invariants", "sample_points", "sample_composable_pairs",
    "verify_axioms", "AXIOM_TOLERANCES",
]

BRANCH_SWITCH = 1e-9  # below this |phi(x)|, contains takes h as linear along the ray
RAY_SPLIT = 16    # pieces contains cuts an undecided piece of the ray into
RAY_DEPTH = 12    # cuts after which a piece, 16^-12 = 2^-48 of the ray, is undecided
RAY_MAX_PIECES = 1 << 16  # bound on the pieces contains keeps open at once
QUAD_FIRST_NODES = 8    # nodes of the first adaptive rule
QUAD_MAX_NODES = 1024   # nodes past which the adaptive rule gives up
QUAD_TOL = 1e-13        # accepted relative error of the adaptive rule
SAMPLE_MAX_TRIES = 200000  # draws after which rejection sampling gives up


class Phi2D:
    """phi(x1, x2) and its cached partials d1, d2, d11, d12, d22, with
    ``grad`` and ``hessian`` as arrays at x = (x1, x2) of numbers or arrays,
    each from one call of a compiled ``ex.Program``, in which a constant
    partial takes the broadcast shape of x. At a ``point`` {x1, x2, v1, v2},
    ``along[k - 1]`` is the k-th derivative of phi along v (k = 1, 2), and
    ``dalong(k, point)`` the list of its partials in x1, x2, v1, v2, each
    in one expression call. ``nodes``: ceil(d / 2) Gauss-Legendre nodes
    integrate the ray integrands of a polynomial phi of degree d.
    ``structure()`` is the one ``poisson.two_domain`` of phi, built here."""

    def __init__(self, phi: ex.Expr):
        self.phi = phi
        self.d1 = ex.differentiate(phi, "x1")
        self.d2 = ex.differentiate(phi, "x2")
        self.d11 = ex.differentiate(self.d1, "x1")
        self.d12 = ex.differentiate(self.d1, "x2")
        self.d22 = ex.differentiate(self.d2, "x2")

        def along(a, b):  # a v1 + b v2, without zero terms
            terms = [ex.Mul(c, ex.Var(v)) for c, v in ((a, "v1"), (b, "v2")) if c != ex.Const(0.0)]
            return functools.reduce(ex.Add, terms) if terms else ex.Const(0.0)

        alongs = along(self.d1, self.d2), along(along(self.d11, self.d12), along(self.d12, self.d22))
        self._grad = ex.Program((self.d1, self.d2))
        self._hessian = ex.Program((self.d11, self.d12, self.d22))
        self.along = tuple(functools.partial(ex.evaluate, e) for e in alongs)
        self._dalong = tuple(ex.Program([ex.differentiate(e, n) for n in ("x1", "x2", "v1", "v2")])
                             for e in alongs)
        degree = ex.polynomial_degree(phi)
        self.nodes = (None if degree is None or degree > 2 * QUAD_MAX_NODES
                      else max(1, (degree + 1) // 2))
        self._structure = two_domain(phi)

    @classmethod
    def parse(cls, source: str) -> "Phi2D":
        return cls(ex.parse(source, ["x1", "x2"]))

    def __call__(self, x) -> float:
        return ex.evaluate(self.phi, {"x1": x[0], "x2": x[1]})

    def grad(self, x) -> np.ndarray:
        return np.array(ex.evaluate(self._grad, {"x1": x[0], "x2": x[1]}))

    def hessian(self, x) -> np.ndarray:
        h11, h12, h22 = ex.evaluate(self._hessian, {"x1": x[0], "x2": x[1]})
        return np.array([[h11, h12], [h12, h22]])

    def dalong(self, order, point) -> list:
        return ex.evaluate(self._dalong[order - 1], point)

    def structure(self) -> PoissonStructure:
        return self._structure


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


@dataclass(frozen=True, init=False)
class GroupoidPoint2D:
    x: np.ndarray
    pi: np.ndarray

    def __init__(self, x, pi):  # the generated one costs a reshape more per pair
        object.__setattr__(self, "x", _pair(x))
        object.__setattr__(self, "pi", _pair(pi))


def _pair(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    return a if a.shape == (2,) else a.reshape(2)


def x_f(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """Final point x_f^i = x^i - phi(x) eps^{ij} pi_j."""
    return np.array(_ray_points(g, p(g.x), 1.0))


def h_map(p: Phi2D, g: GroupoidPoint2D) -> float:
    """Cocycle h = phi(x_f)/phi(x) in a division-free form, valid on the
    zero locus of phi too: with v = (-pi_2, pi_1) and y(s) = x + s phi(x) v,
    h = 1 + int_0^1 grad phi(y(s)) . v ds (see ``_ray_integral``)."""
    return _h(p, _ray(p, g))


def _h(p: Phi2D, ray: tuple) -> float:
    """``h_map`` along a ``_ray``."""
    return 1.0 + _ray_integral(p, ray, p.along[0])


def psi(p: Phi2D, g: GroupoidPoint2D) -> float:
    """{pi_1, pi_2} = (1 + grad phi(x) . v - h)/phi(x) in a division-free
    form, with no cancellation near the zero locus of phi:
    psi = -int_0^1 (1 - s) v^T Hess phi(y(s)) v ds (v, y as in ``h_map``)."""
    return _ray_integral(p, _ray(p, g), lambda point: (point["s"] - 1.0) * p.along[1](point))


def _ray(p: Phi2D, g: GroupoidPoint2D) -> tuple:
    """(x1, x2, pi1, pi2, phi(x)) of g as floats."""
    (x1, x2), (pi1, pi2) = g.x.tolist(), g.pi.tolist()
    return x1, x2, pi1, pi2, p((x1, x2))


def _ray_end(ray: tuple) -> tuple:
    """x_f of a ``_ray`` as floats, to the bit as ``x_f`` gives it."""
    x1, x2, pi1, pi2, phi = ray
    return x1 - phi * pi2, x2 + phi * pi1


def _ray_integral(p: Phi2D, ray: tuple, integrand):
    """int_0^1 integrand(point) ds along a ``_ray``, ``point`` holding s,
    y(s) = x + s phi(x) v as x1, x2 and v = (-pi_2, pi_1) as v1, v2, by
    Gauss-Legendre: exact with ``p.nodes`` nodes for a polynomial phi.
    Otherwise the n-node rule, n doubling from QUAD_FIRST_NODES, is
    accepted once each component agrees with the n/2-node rule to QUAD_TOL
    times the integral of its modulus."""
    x1, x2, pi1, pi2, phi = ray
    a1, a2, point = phi * pi2, phi * pi1, {"x1": x1, "x2": x2, "v1": -pi2, "v2": pi1}

    def rule(n, moduli=False):  # the sum, and the sum of moduli if asked
        total = scale = 0.0
        for s, w in _gauss_legendre(n):
            point["s"], point["x1"], point["x2"] = s, x1 - s * a1, x2 + s * a2
            f = integrand(point)
            total += w * f
            if moduli:
                scale += w * abs(f)
        return total, scale

    if p.nodes is not None:
        return rule(p.nodes)[0]
    n, coarse = QUAD_FIRST_NODES, None
    while n <= QUAD_MAX_NODES:
        fine, scale = rule(n, coarse is not None)
        if coarse is not None and np.all(abs(fine - coarse) <= QUAD_TOL * scale):
            return fine
        n, coarse = 2 * n, fine
    raise RuntimeError(f"ray integral of phi not converged at {QUAD_MAX_NODES} nodes")


@functools.cache
def _gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [0, 1] by Golub-Welsch, as a list
    of (node, weight) pairs of floats; n = 1 gives exactly [(0.5, 1.0)]."""
    k = np.arange(1.0, n)
    t, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return list(zip((0.5 * (1.0 + t)).tolist(), (vectors[0] ** 2).tolist()))


def contains(p: Phi2D, d: Domain2D, g: GroupoidPoint2D) -> bool:
    """Membership in the groupoid: along the straight ray t -> (x, t pi),
    t in [0, 1], the connectivity witness, h must stay positive and x_f,
    which runs along the segment x + t phi(x) v, v = (-pi_2, pi_1), inside
    the convex rectangle, so both ends of the segment decide that. For h:

    * where |phi(x)| < BRANCH_SWITCH, h is taken as linear in t and h(1)
      = ``h_map(p, g)`` decides. Not certified: h(t) = 1 + t grad phi(x) . v
      + O(t^2 |phi(x)|), so the answer can be wrong where h comes within
      O(|phi(x)|) of 0 on the ray;
    * otherwise h(t) = phi(x_f(t)) / phi(x) > 0 iff s phi > 0 on the
      segment, s = sign(phi(x)), decided exactly by one subdivision loop
      from the whole segment: a piece whose interval enclosure of phi
      excludes 0 is done, the others are cut into RAY_SPLIT equal pieces,
      and s phi is checked at x_f and at each new cut, where a value <= 0
      witnesses non-membership.

    A piece undecided after RAY_DEPTH cuts, or a ray needing more
    than RAY_MAX_PIECES open pieces at once (a bound on time and memory,
    reached only where the enclosures overestimate phi's range by orders
    of magnitude, as for 1e7*(x1 - x1) + 1), makes the answer "not a
    member": the groupoid is open, so such a point lies within rounding of
    its boundary. Where phi is undefined on the ray, the ray leaves its
    domain: "not a member"."""
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

    if not positive_at(1.0):
        return False
    # piece starts and the common width are dyadic, so every t is exact
    lo_t, width = np.zeros(1), 1.0
    for _ in range(RAY_DEPTH):
        lo_t = lo_t[~certified(lo_t, lo_t + width)]
        if not lo_t.size:
            return True
        if RAY_SPLIT * lo_t.size > RAY_MAX_PIECES:
            return False
        width /= RAY_SPLIT
        cuts = (lo_t[:, None] + width * np.arange(1, RAY_SPLIT)).ravel()
        if not positive_at(cuts):
            return False
        lo_t = np.concatenate([lo_t, cuts])
    return bool(np.all(certified(lo_t, lo_t + width)))


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
    ray = _ray(p, g)
    xf1, xf2 = _ray_end(ray)
    if math.hypot(xf1 - g2.x[0], xf2 - g2.x[1]) > tol:
        raise ValueError("points are not composable: right(g) != left(g2)")
    return GroupoidPoint2D(g.x, g.pi + _h(p, ray) * g2.pi)


def inverse(p: Phi2D, g: GroupoidPoint2D) -> GroupoidPoint2D:
    """g^{-1} = (x_f(g), -pi / h(g)). Two values of h serve: the integral,
    and the quotient phi(x_f) / phi(x) at the computed x_f, with which the
    ray of g^{-1} runs from x_f back to x itself, so that g^{-1} g is a
    unit to rounding however small h is. Their errors, in units of the unit
    roundoff, with c = (|x1| + |phi(x) pi_2|, |x2| + |phi(x) pi_1|) bounding
    the rounding of x_f and of the integral's nodes: the quotient's is at
    most c . |grad phi(x_f)| / |phi(x)|; the integral's about 1 + |h - 1|
    + c . |grad phi(x_f) - grad phi(x)| / |phi(x)|, which g^{-1} g
    amplifies by a further 1/h. The quotient is taken where its error is at
    most the integral's over h. Next to a zero locus crossed at a slant, as
    for x1 - 1 at x1 = 1 + 2^-40, it is not: there the rounding of x_f is
    most of phi(x_f), and the integral, with grad phi constant, is exact."""
    ray = x1, x2, pi1, pi2, phi = _ray(p, g)
    xf = _ray_end(ray)
    phi_f = p(xf)
    f1, f2 = ex.evaluate(p._grad, {"x1": xf[0], "x2": xf[1]})
    d1, d2 = ex.evaluate(p._grad, {"x1": x1, "x2": x2})
    c1, c2 = abs(x1) + abs(phi * pi2), abs(x2) + abs(phi * pi1)
    err_q, err_h = c1 * abs(f1) + c2 * abs(f2), c1 * abs(f1 - d1) + c2 * abs(f2 - d2)
    if phi_f and err_q * abs(phi_f) <= abs(phi) * (abs(phi) + abs(phi_f - phi) + err_h):
        return GroupoidPoint2D(xf, (-pi1 * (phi / phi_f), -pi2 * (phi / phi_f)))
    h = _h(p, ray)
    return GroupoidPoint2D(xf, (-pi1 / h, -pi2 / h))


def _x_f_jacobian(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """d x_f / d (x1, x2, pi1, pi2), exact."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    pi1, pi2 = g.pi
    return np.array([
        [1.0 - d1 * pi2, -d2 * pi2, 0.0, -phi],
        [d1 * pi1, 1.0 + d2 * pi1, phi, 0.0],
    ])


def _h_gradient(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """d h / d (x1, x2, pi1, pi2), exact (see ``_ray_gradient``)."""
    return _ray_gradient(p, g, 1, lambda s: 1.0)


def _psi_gradient(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """d psi / d (x1, x2, pi1, pi2), exact (see ``_ray_gradient``)."""
    return _ray_gradient(p, g, 2, lambda s: s - 1.0)


def _ray_gradient(p: Phi2D, g: GroupoidPoint2D, order: int, weight):
    """Gradient in (x1, x2, pi1, pi2) of int_0^1 weight(s) D(y(s), v) ds,
    D = ``p.along[order - 1]``, under the integral sign of ``_ray_integral``:
    dy/dx = I + s v grad phi(x)^T, dv/dpi = E and dy/dpi = s phi(x) E with
    E = [[0, -1], [1, 0]], and d_y D, d_v D from ``p.dalong``."""
    ray = _ray(p, g)
    phi, (g1, g2) = ray[4], p.grad(g.x)

    def integrand(point):
        s = point["s"]
        fy1, fy2, fv1, fv2 = (weight(s) * f for f in p.dalong(order, point))
        q, r = s * (point["v1"] * fy1 + point["v2"] * fy2), s * phi
        return np.array([fy1 + q * g1, fy2 + q * g2, fv2 + r * fy2, -(fv1 + r * fy1)])

    return _ray_integral(p, ray, integrand)


def _inversion_pullback(p: Phi2D, g: GroupoidPoint2D, P: np.ndarray) -> np.ndarray:
    """J P J^T for the exact Jacobian J of (x, pi) -> (x_f, -pi/h), split
    as J = A + B with A = [d x_f; -E / h], E = [0 I], and the rank-one
    B = [0; pi] grad h^T / h^2: A P A^T + C - C^T with C = A P B^T. The
    fourth term, B P B^T, is 0 as P is antisymmetric and is left out: in
    rounding it is not, and where h is small it swamps the result."""
    h = h_map(p, g)
    A = np.vstack([_x_f_jacobian(p, g), -np.eye(2, 4, 2) / h])
    C = A @ P @ np.outer(_h_gradient(p, g) / h ** 2, np.r_[0.0, 0.0, g.pi])
    return A @ P @ A.T + C - C.T


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


# ---------------------------------------------------------------------------
# Bridge to path space

def embed(p: Phi2D, g: GroupoidPoint2D, N: int = ps.DEFAULT_GRID,
          tapered: bool = False) -> ps.DiscretizedMorphism:
    """Straight-line representative of (x, pi): X(u) = x + u phi(x)
    (-pi_2, pi_1), constant E = pi, eta recovered as eta = E / H with
    H(u) = 1 + int_0^u (d2 phi E_1 - d1 phi E_2).

    With ``tapered`` the path is reparametrized by the quintic smoothstep
    u -> u^3 (10 - 15u + 6u^2) (``pathspace.taper``) so that eta vanishes
    at the endpoints (for concatenation)."""
    scale, rate = ps.taper(np.linspace(0.0, 1.0, N + 1), tapered)
    phi0 = p(g.x)
    direction = phi0 * np.array([-g.pi[1], g.pi[0]])
    X = g.x[None, :] + scale[:, None] * direction[None, :]
    g1, g2 = p.grad(X.T)
    that = (g2 * g.pi[0] - g1 * g.pi[1]) * rate  # dH/du along the path
    H = 1.0 + ps.path_integral(that)
    if np.min(H) <= 0.0:
        raise ValueError("H(u) <= 0 along the representative; "
                         "(x, pi) is not in the groupoid")
    eta = (rate / H)[:, None] * g.pi[None, :]
    return ps.DiscretizedMorphism(n=2, X=X, eta=eta)


def invariants(p: Phi2D, m: ps.DiscretizedMorphism,
               residual_tol: float = 1e-4) -> GroupoidPoint2D:
    """Recover (x, pi) from a constraint solution: x = X(0),
    H = exp int T with T = d2 phi eta_1 - d1 phi eta_2, and
    pi_i = int eta_i H. m must pass ``pathspace.require_solution`` at
    residual_tol."""
    ps.require_solution(p.structure(), m, residual_tol)
    g1, g2 = p.grad(m.X.T)
    T = g2 * m.eta[:, 0] - g1 * m.eta[:, 1]
    H = np.exp(ps.path_integral(T))
    pi = ps.path_integral(m.eta * H[:, None])[-1]
    return GroupoidPoint2D(m.X[0], pi)


# ---------------------------------------------------------------------------
# Sampling and the axiom report

def sample_points(p: Phi2D, d: Domain2D, count: int, rng, pi_box: float = 1.0):
    """Rejection-sample groupoid points with x in the rectangle and pi
    in [-pi_box, pi_box]^2; ValueError unless both have finite size."""
    _check_bounded(d, pi_box)
    return _rejection_sample(count, "groupoid points",
                             lambda: _draw_point(p, d, rng, pi_box))


def sample_composable_pairs(p: Phi2D, d: Domain2D, count: int, rng,
                            pi_box: float = 1.0):
    """Composable pairs (g, g2) with left(g2) = right(g)."""
    _check_bounded(d, pi_box)

    def draw():
        g = _draw_point(p, d, rng, pi_box)
        g2 = None if g is None else _draw_point(p, d, rng, pi_box, x_f(p, g))
        return None if g2 is None else (g, g2)

    return _rejection_sample(count, "composable pairs", draw)


def _check_bounded(d, pi_box):
    """ValueError unless uniform draws over the rectangle and pi box exist."""
    if not all(math.isfinite(w) for w in (d.xmax - d.xmin, d.ymax - d.ymin, 2.0 * pi_box)):
        raise ValueError("sampling needs a rectangle and a pi box of finite size")
    if pi_box < 0:
        raise ValueError(f"pi_box must be at least 0, got {pi_box:g}")


def _draw_point(p, d, rng, pi_box, x=None):
    """(x, pi) with pi drawn, and x too unless given; None unless a member."""
    if x is None:
        x = np.array([rng.uniform(d.xmin, d.xmax), rng.uniform(d.ymin, d.ymax)])
    g = GroupoidPoint2D(x, rng.uniform(-pi_box, pi_box, size=2))
    return g if contains(p, d, g) else None


def _rejection_sample(count, what, draw):
    out, tries = [], 0
    while len(out) < count:
        tries += 1
        if tries > SAMPLE_MAX_TRIES:
            raise RuntimeError(f"sampling failed to find enough {what}")
        item = draw()
        if item is not None:
            out.append(item)
    return out


AXIOM_TOLERANCES = {  # in the order verify_axioms runs the checks
    "identity_left_right": 1e-12,
    "identity_elements": 1e-12,
    "inverse": 1e-12,
    "right_of_product": 1e-12,
    "cocycle": 1e-12,
    "associativity": 1e-12,
    "omega_inverse": 1e-9,
    "jacobi_P": 1e-9,
    "d_omega": 1e-4,
    "left_poisson": 1e-9,
    "right_anti_poisson": 1e-9,
    "inversion_anti_poisson": 1e-6,
    "product_pullback": 1e-4,
}


def _bivector_gradient(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """dP[d, a, b] = d_d P^{ab} of ``bivector``, exact."""
    (d1, d2), H = p.grad(g.x), p.hessian(g.x)
    dP = np.zeros((4, 4, 4))
    dP[:2, 0, 1] = d1, d2
    dP[:2, :2, 2:] = -np.einsum("il,j->lij", [H[1], -H[0]], g.pi)
    dP[2, :2, 2] = dP[3, :2, 3] = -d2, d1
    dP[:, 2, 3] = _psi_gradient(p, g)
    return dP - dP.transpose(0, 2, 1)


def verify_axioms(p: Phi2D, d: Domain2D, samples: int = 100, seed: int = 0,
                  pi_box: float = 1.0) -> dict:
    """Numeric verification of the groupoid axioms on ``samples`` (at
    least 1) sampled points and composable pairs: {check: {"max_dev",
    "tol", "worst_point", "count", "passed"}} for every check of
    AXIOM_TOLERANCES, "count" being the evaluations the check ran. A check
    that ran 0 times has "max_dev" -1.0 and fails. Associativity runs only
    where a freshly drawn third factor is a member, the product pullback
    on the first half of the pairs. Derivatives are exact: dP
    (``_bivector_gradient``) for Jacobi and d omega = 0, and for the
    pullback the Jacobians on (x, pi, pi2) of the product,
    [[I, 0], [pi2 (x) grad h, h I]], and of (x_f, pi2)."""
    if samples < 1:
        raise ValueError(f"verify_axioms needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    points = sample_points(p, d, samples, rng, pi_box=pi_box)
    pairs = sample_composable_pairs(p, d, samples, rng, pi_box=pi_box)
    report = {name: {"max_dev": -1.0, "tol": tol, "worst_point": None, "count": 0}
              for name, tol in AXIOM_TOLERANCES.items()}

    def record(name, dev, *where):
        entry = report[name]
        entry["count"] += 1
        if dev > entry["max_dev"]:
            entry["max_dev"] = float(dev)
            entry["worst_point"] = [float(v) for v in np.concatenate(where)]

    def dev(a, b=0.0):
        return np.max(np.abs(a - b))

    # (i) l(j(x)) = r(j(x)) = x, (iii) identities and (iv) inverses
    for g in points:
        jx = GroupoidPoint2D(g.x, np.zeros(2))
        record("identity_left_right", max(dev(left(jx), g.x), dev(right(p, jx), g.x)), g.x)
        gr = multiply(p, g, GroupoidPoint2D(right(p, g), np.zeros(2)))
        gl = multiply(p, jx, g)
        record("identity_elements", max(dev(gr.pi, g.pi), dev(gr.x, g.x),
                                        dev(gl.pi, g.pi), dev(gl.x, g.x)), g.x, g.pi)
        gi = inverse(p, g)
        prod, prod2 = multiply(p, g, gi), multiply(p, gi, g, tol=1e-6)
        record("inverse", max(dev(prod.pi), dev(prod.x, g.x), dev(prod2.pi),
                              dev(prod2.x, x_f(p, g))), g.x, g.pi)

    # (ii)+(v) products: target of product, cocycle, associativity
    for g, g2 in pairs:
        prod = multiply(p, g, g2)
        record("right_of_product", dev(right(p, prod), right(p, g2)), g.x, g.pi, g2.pi)
        hh = h_map(p, g) * h_map(p, g2)
        record("cocycle", abs(h_map(p, prod) - hh) / max(1.0, abs(hh)), g.x, g.pi, g2.pi)
        g3 = _draw_point(p, d, rng, pi_box, right(p, g2))  # a composable triple
        if g3 is not None:
            lhs = multiply(p, prod, g3, tol=1e-6)
            rhs = multiply(p, g, multiply(p, g2, g3), tol=1e-6)
            record("associativity", dev(lhs.pi, rhs.pi), g.x, g.pi, g2.pi, g3.pi)

    # (vii')-(x): symplectic checks; l Poisson, r and inversion anti-Poisson
    for g in points:
        P, dP = bivector(p, g), _bivector_gradient(p, g)
        W = np.linalg.inv(P)  # symplectic_form, without building P again
        record("omega_inverse", dev(W @ P, np.eye(4)), g.x, g.pi)
        jacobi = np.einsum("ad,dbc->abc", P, dP)  # cyclic sum of P^{ad} d_d P^{bc}
        record("jacobi_P", dev(jacobi + jacobi.transpose(1, 2, 0) + jacobi.transpose(2, 0, 1)),
               g.x, g.pi)
        dW = -np.einsum("ab,dbc,ce->dae", W, dP, W)  # d omega = -W dP W, omega = inv(P)
        # (d omega)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}
        record("d_omega", dev(dW - dW.transpose(1, 0, 2) + dW.transpose(1, 2, 0)), g.x, g.pi)
        record("left_poisson", abs(P[0, 1] - p(g.x)), g.x, g.pi)
        dr1, dr2 = _x_f_jacobian(p, g)
        record("right_anti_poisson", abs(dr1 @ P @ dr2 + p(x_f(p, g))), g.x, g.pi)
        record("inversion_anti_poisson",
               dev(_inversion_pullback(p, g, P), -bivector(p, inverse(p, g))), g.x, g.pi)

    # (ix) P* omega = pi1* omega + pi2* omega on composable pairs, as maps
    # of c = (x, pi, pi2): c -> (x, pi + h pi2), c -> (x, pi), c -> (x_f, pi2)
    for g, g2 in pairs[: max(1, len(pairs) // 2)]:
        product, first, second = np.eye(4, 6), np.eye(4, 6), np.eye(4, 6, 2)
        product[2:, :4] += np.outer(g2.pi, _h_gradient(p, g))
        product[2:, 4:] = h_map(p, g) * np.eye(2)
        second[:2, :4] = _x_f_jacobian(p, g)
        W, W1, W2 = (symplectic_form(p, q) for q in (multiply(p, g, g2), g, g2))
        record("product_pullback", dev(product.T @ W @ product,
                                       first.T @ W1 @ first + second.T @ W2 @ second),
               g.x, g.pi, g2.pi)

    for entry in report.values():
        entry["passed"] = bool(entry["count"] > 0 and entry["max_dev"] <= entry["tol"])
    return report
