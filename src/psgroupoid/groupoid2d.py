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

import numpy as np

from . import expr as ex

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
SAMPLE_MAX_TRIES = 200000  # tries of each kind after which rejection sampling gives up
SAMPLE_SLACK = 384  # offsets a block draws past its estimate, at less than the cost of a second block


class Phi2D:
    """phi(x1, x2) and its partials d1, d2, d11, d12, d22, with ``grad``
    and ``hessian`` as arrays at x = (x1, x2) of numbers or arrays, each
    from one call of a compiled ``ex.Program``, in which a constant
    partial takes the broadcast shape of x. At a ``point`` {x1, x2, v1, v2},
    ``along[k - 1]`` is the k-th derivative of phi along v (k = 1, 2), and
    ``dalong(k, point)`` the list of its partials in x1, x2, v1, v2, each
    in one expression call. ``nodes``: ceil(d / 2) Gauss-Legendre nodes
    integrate the ray integrands of a polynomial phi of degree d.
    ``structure()`` is the one ``poisson.two_domain`` of phi. All but phi
    and ``nodes`` are built on first use, once."""

    def __init__(self, phi: ex.Expr):
        self.phi = phi
        degree = ex.polynomial_degree(phi)
        self.nodes = (None if degree is None or degree > 2 * QUAD_MAX_NODES
                      else max(1, (degree + 1) // 2))

    d1 = functools.cached_property(lambda self: ex.differentiate(self.phi, "x1"))
    d2 = functools.cached_property(lambda self: ex.differentiate(self.phi, "x2"))
    d11 = functools.cached_property(lambda self: ex.differentiate(self.d1, "x1"))
    d12 = functools.cached_property(lambda self: ex.differentiate(self.d1, "x2"))
    d22 = functools.cached_property(lambda self: ex.differentiate(self.d2, "x2"))
    _grad = functools.cached_property(lambda self: ex.Program((self.d1, self.d2)))
    _hessian = functools.cached_property(lambda self: ex.Program((self.d11, self.d12, self.d22)))

    @functools.cached_property
    def _alongs(self):
        def along(a, b):  # a v1 + b v2, without zero terms
            terms = [ex.Mul(c, ex.Var(v)) for c, v in ((a, "v1"), (b, "v2")) if c != ex.Const(0.0)]
            return functools.reduce(ex.Add, terms) if terms else ex.Const(0.0)

        return along(self.d1, self.d2), along(along(self.d11, self.d12), along(self.d12, self.d22))

    along = functools.cached_property(lambda self: tuple(functools.partial(ex.evaluate, e) for e in self._alongs))
    _dalong = functools.cached_property(lambda self: tuple(
        ex.Program([ex.differentiate(e, n) for n in ("x1", "x2", "v1", "v2")]) for e in self._alongs))

    @functools.cached_property
    def _structure(self):
        from .poisson import two_domain
        return two_domain(self.phi)

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

    def structure(self):
        return self._structure


class Domain2D(ex._Record):
    """Open axis-aligned rectangle; membership is strict."""

    __slots__ = ("xmin", "xmax", "ymin", "ymax")

    def __init__(self, xmin: float, xmax: float, ymin: float, ymax: float):
        if not (xmin < xmax and ymin < ymax):
            raise ValueError("degenerate rectangle")
        super().__init__(xmin, xmax, ymin, ymax)

    def contains_point(self, x) -> bool:
        return bool(self.xmin < x[0] < self.xmax and self.ymin < x[1] < self.ymax)


class GroupoidPoint2D(ex._Record):
    """(x, pi), each of shape (2,); or a stack of points, each of shape
    (2, ...), which x_f, h_map, psi, multiply, inverse, bivector and
    symplectic_form take too (matrices then with the stack's axes first)."""

    __slots__ = ("x", "pi")

    def __init__(self, x, pi):  # _Record's loop costs more per point
        object.__setattr__(self, "x", _pair(x))
        object.__setattr__(self, "pi", _pair(pi))


def _pair(v) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    return a if a.shape == (2,) or a.ndim > 1 and len(a) == 2 else a.reshape(2)


def _one_point(name: str, g: GroupoidPoint2D):
    if g.x.shape != (2,) or g.pi.shape != (2,):  # a stack
        raise ValueError(f"{name} takes one point, x and pi of shape (2,), got {g.x.shape} and {g.pi.shape}")


def x_f(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """Final point x_f^i = x^i - phi(x) eps^{ij} pi_j."""
    return np.array(_ray_end(_ray(p, g)))


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
    """(x1, x2, pi1, pi2, phi(x)) of g: floats, or arrays for a stack."""
    (x1, x2), (pi1, pi2) = g.x.tolist(), g.pi.tolist()
    if x1.__class__ is list:  # a stack
        (x1, x2), (pi1, pi2) = g.x, g.pi
    return x1, x2, pi1, pi2, p((x1, x2))


def _ray_end(ray: tuple) -> tuple:
    """x_f of a ``_ray``: floats, or arrays for a stack."""
    x1, x2, pi1, pi2, phi = ray
    return x1 - phi * pi2, x2 + phi * pi1


def _ray_integral(p: Phi2D, ray: tuple, integrand):
    """int_0^1 integrand(point) ds along a ``_ray``, ``point`` holding s,
    y(s) = x + s phi(x) v as x1, x2 and v = (-pi_2, pi_1) as v1, v2, by
    Gauss-Legendre: exact with ``p.nodes`` nodes for a polynomial phi.
    Otherwise the n-node rule, n doubling from QUAD_FIRST_NODES, is
    accepted once each component agrees with the n/2-node rule to QUAD_TOL
    times the integral of its modulus. A ray of floats runs node by node,
    a stack of rays all nodes in one call (s of shape (n, 1, ...), values
    (..., n, *stack)), summed in node order, each ray at its own n."""
    x1, x2, pi1, pi2, phi = ray
    a1, a2, point = phi * pi2, phi * pi1, {"x1": x1, "x2": x2, "v1": -pi2, "v2": pi1}

    def rule(n, moduli=False):  # the sum, and the sum of moduli if asked
        total = scale = 0.0
        if x1.__class__ is not float:  # a stack: a running sum over the node axis, + 0.0 as 0.0 + -0.0 is 0.0
            s, w = _gauss_legendre(n, x1.ndim)
            point["s"], point["x1"], point["x2"] = s, x1 - s * a1, x2 + s * a2
            f, axis = integrand(point), -1 - x1.ndim
            total = np.cumsum(w * f, axis).take(-1, axis) + 0.0
            if moduli:
                scale = np.cumsum(w * abs(f), axis).take(-1, axis) + 0.0
            return total, scale
        for s, w in _gauss_legendre(n):
            point["s"], point["x1"], point["x2"] = s, x1 - s * a1, x2 + s * a2
            f = integrand(point)
            total += w * f
            if moduli:
                scale += w * abs(f)
        return total, scale

    if p.nodes is not None:
        return rule(p.nodes)[0]
    n, coarse, value, done = QUAD_FIRST_NODES, None, None, False
    while n <= QUAD_MAX_NODES:
        fine, scale = rule(n, coarse is not None)
        if coarse is not None:
            close = abs(fine - coarse) <= QUAD_TOL * scale
            if x1.__class__ is float:
                if np.all(close):
                    return fine
            else:  # a ray keeps the sum of the first rule it accepts
                value = fine if value is None else np.where(done, value, fine)
                done = done | close.reshape(-1, *x1.shape).all(0)
                if done.all():
                    return value
        n, coarse = 2 * n, fine
    raise RuntimeError(f"ray integral of phi not converged at {QUAD_MAX_NODES} nodes")


@functools.cache
def _gauss_legendre(n: int, axes: int = 0):
    """The n-point Gauss-Legendre rule on [0, 1] by Golub-Welsch, as a list
    of (node, weight) pairs of floats; n = 1 gives exactly [(0.5, 1.0)].
    With ``axes`` > 0, the nodes and the weights as two read-only arrays
    of shape (n, 1, ...), with ``axes`` axes of length 1."""
    if axes:
        s, w = np.reshape(_gauss_legendre(n), (n, 2) + (1,) * axes).swapaxes(0, 1)
        s.flags.writeable = w.flags.writeable = False
        return s, w
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
      witnesses non-membership. Up to the whole segment's enclosure, the
      steps run on floats; a cut takes the segment's points at t in one
      array, RAY_SPLIT + 1 ends per piece cut: the inner ones are the new
      cuts, each two adjacent ones bound a new piece's box.

    A piece undecided after RAY_DEPTH cuts, or a ray needing more
    than RAY_MAX_PIECES open pieces at once (a bound on time and memory,
    reached only where the enclosures overestimate phi's range by orders
    of magnitude, as for 1e7*(x1 - x1) + 1), makes the answer "not a
    member": the groupoid is open, so such a point lies within rounding of
    its boundary. Where phi is undefined on the ray, the ray leaves its
    domain: "not a member". One point, not a stack."""
    _one_point("contains", g)
    try:
        return _contains(p, d, g)
    except ex.DomainError:
        return False


def _contains(p: Phi2D, d: Domain2D, g: GroupoidPoint2D) -> bool:
    (x1, x2), (pi1, pi2) = g.x.tolist(), g.pi.tolist()
    if not d.contains_point((x1, x2)):
        return False
    phi0 = p((x1, x2))
    end = _ray_end(ray := (x1, x2, pi1, pi2, phi0))
    if not d.contains_point(end):
        return False
    if abs(phi0) < BRANCH_SWITCH:
        return _h(p, ray) > 0.0
    sign = 1.0 if phi0 > 0.0 else -1.0
    if not sign * p(end) > 0.0:
        return False

    def certified(a, b):
        # each coordinate is monotone in t, so its values a, b at the ends bound it on a piece
        box = {name: (np.nextafter(np.minimum(u, w), -np.inf), np.nextafter(np.maximum(u, w), np.inf))
               for name, u, w in zip(("x1", "x2"), a, b)}
        lo, hi = ex.evaluate_interval(p.phi, box)
        return np.minimum(sign * lo, sign * hi) > 0.0

    if certified(*np.array([(x1, x2), end])[:, :, None]):  # the whole segment, as pieces of shape (1,)
        return True
    # piece starts and widths are dyadic, so every t is exact
    lo_t, width, steps = np.zeros(1), 1.0, np.arange(RAY_SPLIT + 1.0)
    for _ in range(RAY_DEPTH):
        if RAY_SPLIT * lo_t.size > RAY_MAX_PIECES:
            return False
        width /= RAY_SPLIT
        t = lo_t[:, None] + width * steps  # the ends of each piece's RAY_SPLIT pieces
        y1, y2 = x1 - phi0 * (t * pi2), x2 + phi0 * (t * pi1)
        if not (sign * p((y1[:, 1:-1], y2[:, 1:-1])) > 0.0).all():
            return False
        lo_t = t[:, :-1][~certified((y1[:, :-1], y2[:, :-1]), (y1[:, 1:], y2[:, 1:]))]
        if not lo_t.size:
            return True
    return False


def _members(p: Phi2D, d: Domain2D, x: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """``contains`` at each point of a stack, x and pi of shape (2, m), as
    a bool array (m,). The same steps run on all points still open at
    once, the subdivision loop on all open pieces of all rays at a depth,
    each piece tagged with its ray. A stack where phi raises DomainError
    is decided point by point, and so are its open rays once their pieces
    together would pass RAY_MAX_PIECES, so that the answers, and the time
    and memory bounds, are those of ``contains``."""
    try:
        return _members_of(p, d, x, pi)
    except ex.DomainError:
        return np.array([contains(p, d, GroupoidPoint2D(x[:, k], pi[:, k])) for k in range(x.shape[1])],
                        dtype=bool)


def _members_of(p, d, x, pi):
    member = np.zeros(x.shape[1], dtype=bool)

    def inside(x1, x2):
        return (d.xmin < x1) & (x1 < d.xmax) & (d.ymin < x2) & (x2 < d.ymax)

    index = np.flatnonzero(inside(*x))
    x1, x2, pi1, pi2 = rays = np.concatenate([x[:, index], pi[:, index]])
    phi0 = p((x1, x2))
    with np.errstate(invalid="ignore"):  # phi(x) = 0 times an infinite pi: a NaN end, not inside
        ends = x1 - phi0 * pi2, x2 + phi0 * pi1
    kept = inside(*ends)
    near = kept & (abs(phi0) < BRANCH_SWITCH)
    if near.any():
        member[index[near]] = _h(p, (*rays[:, near], phi0[near])) > 0.0
    kept &= ~near
    if not kept.any():
        return member
    sign = np.sign(phi0)
    kept[kept] = sign[kept] * p((ends[0][kept], ends[1][kept])) > 0.0
    # rows x1, x2, pi1, pi2, phi0, sign of the rays left, the columns of
    # ``on`` those of the pieces' rays
    index, rays = index[kept], np.vstack([rays, phi0, sign])[:, kept]

    def at(on, t):  # as the ray points of _contains
        return on[0] - on[4] * (t * on[3]), on[1] + on[4] * (t * on[2])

    def certified(on, lo_t, hi_t):  # as in _contains
        box = {name: (np.nextafter(np.minimum(u, w), -np.inf), np.nextafter(np.maximum(u, w), np.inf))
               for name, u, w in zip(("x1", "x2"), at(on, lo_t), at(on, hi_t))}
        lo, hi = ex.evaluate_interval(p.phi, box)
        return np.minimum(on[5] * lo, on[5] * hi) > 0.0

    # the open pieces (ray, lo_t) of all rays still open, at one depth
    ray, lo_t, width, open_ = np.arange(index.size), np.zeros(index.size), 1.0, np.ones(index.size, dtype=bool)
    for _ in range(RAY_DEPTH):
        if not ray.size:
            return member
        keep = ~certified(rays[:, ray], lo_t, lo_t + width)
        ray, lo_t = ray[keep], lo_t[keep]
        pieces = np.bincount(ray, minlength=index.size)
        member[index[open_ & (pieces == 0)]] = True
        open_ &= (pieces > 0) & (RAY_SPLIT * pieces <= RAY_MAX_PIECES)
        keep = open_[ray]
        ray, lo_t = ray[keep], lo_t[keep]
        if RAY_SPLIT * ray.size > RAY_MAX_PIECES:  # each open ray alone, as contains bounds it
            for k in np.flatnonzero(open_):
                member[index[k]] = contains(p, d, GroupoidPoint2D(rays[:2, k], rays[2:4, k]))
            return member
        width /= RAY_SPLIT
        cuts, cut_ray = (lo_t[:, None] + width * np.arange(1, RAY_SPLIT)).ravel(), np.repeat(ray, RAY_SPLIT - 1)
        on = rays[:, cut_ray]
        open_[cut_ray[~(on[5] * p(at(on, cuts)) > 0.0)]] = False
        keep, cut_keep = open_[ray], open_[cut_ray]
        ray, lo_t = np.concatenate([ray[keep], cut_ray[cut_keep]]), np.concatenate([lo_t[keep], cuts[cut_keep]])
    undecided = np.bincount(ray[~certified(rays[:, ray], lo_t, lo_t + width)], minlength=index.size)
    member[index[open_ & (undecided == 0)]] = True
    return member


def left(g: GroupoidPoint2D) -> np.ndarray:
    return g.x.copy()


def right(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    return x_f(p, g)


def multiply(p: Phi2D, g: GroupoidPoint2D, g2: GroupoidPoint2D,
             tol: float = 1e-8) -> GroupoidPoint2D:
    """(x, pi) . (x~, pi~) = (x, pi + h(x, pi) pi~) for composable pairs."""
    ray = _ray(p, g)
    xf1, xf2 = _ray_end(ray)
    gap = (math.hypot if xf1.__class__ is float else np.hypot)(xf1 - g2.x[0], xf2 - g2.x[1])
    if not (gap <= tol if gap.__class__ is float else (gap <= tol).all()):
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
    most of phi(x_f), and the integral, with grad phi constant, is exact.
    A stack takes the choice point by point."""
    ray = x1, x2, pi1, pi2, phi = _ray(p, g)
    xf = _ray_end(ray)
    phi_f = p(xf)
    f1, f2 = ex.evaluate(p._grad, {"x1": xf[0], "x2": xf[1]})
    d1, d2 = ex.evaluate(p._grad, {"x1": x1, "x2": x2})
    c1, c2 = abs(x1) + abs(phi * pi2), abs(x2) + abs(phi * pi1)
    err_q, err_h = c1 * abs(f1) + c2 * abs(f2), c1 * abs(f1 - d1) + c2 * abs(f2 - d2)
    quotient = err_q * abs(phi_f) <= abs(phi) * (abs(phi) + abs(phi_f - phi) + err_h)
    if quotient is True and phi_f:
        return GroupoidPoint2D(xf, (-pi1 * (phi / phi_f), -pi2 * (phi / phi_f)))
    if quotient.__class__ is bool:
        h = _h(p, ray)
        return GroupoidPoint2D(xf, (-pi1 / h, -pi2 / h))
    # a stack: the integral where the quotient does not serve, and h = 1 (pi = 0) where it does
    quotient &= phi_f != 0.0
    h = _h(p, (x1, x2, np.where(quotient, 0.0, pi1), np.where(quotient, 0.0, pi2), phi))
    r = phi / np.where(quotient, phi_f, 1.0)
    return GroupoidPoint2D(xf, np.where(quotient, [-pi1 * r, -pi2 * r], [-pi1 / h, -pi2 / h]))


def _x_f_jacobian(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """d x_f / d (x1, x2, pi1, pi2), exact."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    pi1, pi2 = g.pi
    J = np.zeros(np.shape(phi) + (2, 4))
    J[..., 0, 0], J[..., 0, 1], J[..., 0, 3] = 1.0 - d1 * pi2, -d2 * pi2, -phi
    J[..., 1, 0], J[..., 1, 1], J[..., 1, 2] = d1 * pi1, 1.0 + d2 * pi1, phi
    return J


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
    E = [[0, -1], [1, 0]], and d_y D, d_v D from ``p.dalong``. Of a stack,
    the gradients are (4, ...), the stack's axes last."""
    ray = _ray(p, g)
    phi, (g1, g2) = ray[4], p.grad(g.x)

    def integrand(point):
        s = point["s"]
        fy1, fy2, fv1, fv2 = (weight(s) * f for f in p.dalong(order, point))
        q, r = s * (point["v1"] * fy1 + point["v2"] * fy2), s * phi
        return np.array([fy1 + q * g1, fy2 + q * g2, fv2 + r * fy2, -(fv1 + r * fy1)])

    return _ray_integral(p, ray, integrand)


def _inversion_pullback(P: np.ndarray, J: np.ndarray, h, dh: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """J' P J'^T for the exact Jacobian J' of (x, pi) -> (x_f, -pi/h), from
    P = ``bivector``, J = ``_x_f_jacobian``, h and dh = ``_h_gradient`` at
    (x, pi), split as J' = A + B with A = [J; -E / h], E = [0 I], and the
    rank-one B = [0; pi] grad h^T / h^2: A P A^T + C - C^T with C = A P B^T.
    The fourth term, B P B^T, is 0 as P is antisymmetric and is left out:
    in rounding it is not, and where h is small it swamps the result."""
    A = np.concatenate([J, -np.eye(2, 4, 2) / np.reshape(h, np.shape(h) + (1, 1))], -2)
    u = np.moveaxis(dh / h ** 2, 0, -1)
    w = np.moveaxis(np.concatenate([np.zeros_like(pi), pi]), 0, -1)
    C = A @ P @ (u[..., :, None] * w[..., None, :])
    return A @ P @ A.swapaxes(-1, -2) + C - C.swapaxes(-1, -2)


def bivector(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """Poisson bivector P in the coordinate basis (x1, x2, pi1, pi2):
    {x1, x2} = phi, {x^i, pi_j} = -delta^i_j - pi_j eps^{ik} d_k phi,
    {pi_1, pi_2} = psi."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    pi1, pi2 = g.pi
    P = np.zeros(np.shape(phi) + (4, 4))
    P[..., 0, 1], P[..., 0, 2], P[..., 0, 3] = phi, -1.0 - pi1 * d2, -pi2 * d2
    P[..., 1, 2], P[..., 1, 3], P[..., 2, 3] = pi1 * d1, -1.0 + pi2 * d1, psi(p, g)
    return P - P.swapaxes(-1, -2)


def symplectic_form(p: Phi2D, g: GroupoidPoint2D) -> np.ndarray:
    """omega_G as the exact matrix inverse of the bivector, so that
    omega . P = I by construction (P is invertible on the groupoid
    because h > 0)."""
    return np.linalg.inv(bivector(p, g))


# ---------------------------------------------------------------------------
# Bridge to path space

def embed(p: Phi2D, g: GroupoidPoint2D, N: int | None = None, tapered: bool = False):
    """Straight-line representative of (x, pi), a ``pathspace.DiscretizedMorphism``
    on N intervals (``pathspace.DEFAULT_GRID`` if None): X(u) = x + u phi(x)
    (-pi_2, pi_1), constant E = pi, eta recovered as eta = E / H with
    H(u) = 1 + int_0^u (d2 phi E_1 - d1 phi E_2).

    With ``tapered`` the path is reparametrized by the quintic smoothstep
    u -> u^3 (10 - 15u + 6u^2) (``pathspace.taper``) so that eta vanishes
    at the endpoints (for concatenation). One point, not a stack."""
    from . import pathspace as ps
    _one_point("embed", g)
    N = ps.DEFAULT_GRID if N is None else N
    if N < ps.MIN_NODES - 1:
        raise ValueError(f"embed needs N >= {ps.MIN_NODES - 1} intervals, got N = {N}")
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


def invariants(p: Phi2D, m, residual_tol: float = 1e-4) -> GroupoidPoint2D:
    """Recover (x, pi) from a constraint solution m, a
    ``pathspace.DiscretizedMorphism``: x = X(0), H = exp int T with
    T = d2 phi eta_1 - d1 phi eta_2, and pi_i = int eta_i H. m must pass
    ``pathspace.require_solution`` at residual_tol."""
    from . import pathspace as ps
    ps.require_solution(p.structure(), m, residual_tol)
    return _invariants(p, m)


def _invariants(p: Phi2D, m) -> GroupoidPoint2D:
    """``invariants`` of a path already checked to be a solution."""
    from . import pathspace as ps
    g1, g2 = p.grad(m.X.T)
    T = g2 * m.eta[:, 0] - g1 * m.eta[:, 1]
    H = np.exp(ps.path_integral(T))
    pi = ps.path_integral(m.eta * H[:, None])[-1]
    return GroupoidPoint2D(m.X[0], pi)


# ---------------------------------------------------------------------------
# Sampling and the axiom report

def sample_points(p: Phi2D, d: Domain2D, count: int, rng, pi_box: float = 1.0):
    """Rejection-sample groupoid points with x in the rectangle and pi in
    [-pi_box, pi_box]^2; ValueError unless both have finite size. A try
    draws x1, x2, pi1 and pi2, each by ``rng.uniform`` of a numpy Generator,
    and keeps (x, pi) if it is a member: ``_sample``, asked for no pairs."""
    return [GroupoidPoint2D(*s) for s in _sample(p, d, count, 0, rng, pi_box)[0].transpose(2, 0, 1)]


def sample_composable_pairs(p: Phi2D, d: Domain2D, count: int, rng,
                            pi_box: float = 1.0):
    """Composable pairs (g, g2) with left(g2) = right(g). A try draws g as
    ``sample_points`` does and, if g is a member, pi2 for g2 = (x_f(g), pi2),
    and keeps (g, g2) if g2 is a member too: ``_sample``, asked for no points."""
    return [(GroupoidPoint2D(*s[:2]), GroupoidPoint2D(*s[2:]))
            for s in _sample(p, d, 0, count, rng, pi_box)[1].transpose(2, 0, 1)]


def _sample(p, d, points, pairs, rng, pi_box):
    """The samples of ``sample_points``, then of ``sample_composable_pairs``,
    from one stream of draws: x, pi of shape (2, points) each, and x, pi, x2,
    pi2 of shape (2, pairs) each, as tries made one at a time give them and
    leave the generator, each kind with at most SAMPLE_MAX_TRIES tries. A try
    takes 4 draws, or 6 for a pair whose g is a member, so the points' tries
    start at every 4th draw and the pairs' at even ones after the points' last.
    A block of k even offsets draws its values once per map, decides the g at
    each offset (each even one if no pairs are asked) in one ``_members`` pass,
    walks the tries, points then pairs, decides the second factors of the
    pairs' tries in a second pass, then rewinds the generator and draws again
    the values it used. k is SAMPLE_SLACK past the offsets the tries left take
    if all are kept, times the draws so far per such offset of the samples (at
    least 1); a block raising RuntimeError is made again at half the size."""
    if not all(math.isfinite(w) for w in (d.xmax - d.xmin, d.ymax - d.ymin, 2.0 * pi_box)):
        raise ValueError("sampling needs a rectangle and a pi box of finite size")
    if pi_box < 0:
        raise ValueError(f"pi_box must be at least 0, got {pi_box:g}")
    parts, found, tries, used = [[np.empty((2, 2, 0))], [np.empty((4, 2, 0))]], [0, 0], [0, 0], 0

    def block(k, state):  # the points and the pairs of the tries at k offsets, the tries of each, the draws taken
        x = rng.uniform([d.xmin, d.ymin], [d.xmax, d.ymax], size=(k, 2))
        rng.bit_generator.state = state
        pi = rng.uniform(-pi_box, pi_box, size=(k + 2, 2))[1:]  # a try at offset 2j: x[j], pi[j], pi2 = pi[j + 1]
        step, j, hits, chain = 1 + (pairs <= 0), 0, [], []  # no pairs: only even offsets start a try
        first = np.repeat(_members(p, d, x[::step].T, pi[:k:step].T), step).tolist()  # odd ones are not read then
        while j < k and found[0] + len(hits) < points and tries[0] + j // 2 < SAMPLE_MAX_TRIES:
            hits += [j] if first[j] else []
            j += 2
        room = SAMPLE_MAX_TRIES - tries[1] if found[0] + len(hits) >= points and found[1] < pairs else 0
        while j < k and len(chain) < room:
            chain.append(j)
            j += 3 if first[j] else 2
        g, rows, need = np.array([c for c in chain if first[c]], dtype=int), np.empty((4, 0, 2)), pairs - found[1]
        if g.size:
            xf = x_f(p, GroupoidPoint2D(x[g].T, pi[g].T))
            second = _members(p, d, xf, pi[g + 1].T)
            rows, g = np.stack([x[g], pi[g], xf.T, pi[g + 1]])[:, second], g[second]
        ends = chain + [j]  # the offset where the points' tries stop, then where each pair try does
        taken = chain.index(g[need - 1]) + 1 if 0 < need <= g.size else len(chain)
        return [x[hits], pi[hits]], rows[:, :need], [ends[0] // 2, taken], 2 * ends[taken]

    limit = RAY_MAX_PIECES // RAY_SPLIT  # so the first cut of a block's rays keeps within RAY_MAX_PIECES
    while found[0] < points or found[1] < pairs:
        kind = int(found[0] >= points)
        if tries[kind] >= SAMPLE_MAX_TRIES:
            raise RuntimeError(f"sampling failed to find enough {('groupoid points', 'composable pairs')[kind]}")
        least = 2 * (points - found[0]) + 3 * (pairs - found[1])  # the offsets of the tries left if each were kept
        k = min(limit, SAMPLE_SLACK + math.ceil(least * max(1, used / max(2 * found[0] + 3 * found[1], 1))))
        state = rng.bit_generator.state
        try:
            *new, taken, drawn = block(k, state)
        except RuntimeError:
            if k == 1:
                raise
            limit, drawn = k // 2, 0
        else:
            for i in (0, 1):  # the points, the pairs
                parts[i].append(np.transpose(new[i], (0, 2, 1)))
                found[i], tries[i] = found[i] + len(new[i][0]), tries[i] + taken[i]
            used += drawn
        rng.bit_generator.state = state
        rng.random(drawn)
    return [np.concatenate(part, axis=-1) for part in parts]


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
    """dP[..., d, a, b] = d_d P^{ab} of ``bivector``, exact."""
    (d1, d2), H = p.grad(g.x), p.hessian(g.x)
    dP = np.zeros(np.shape(d1) + (4, 4, 4))
    dP[..., 0, 0, 1], dP[..., 1, 0, 1] = d1, d2
    dP[..., :2, :2, 2:] = -np.einsum("il...,j...->...lij", [H[1], -H[0]], g.pi)
    dP[..., 2, :2, 2] = dP[..., 3, :2, 3] = np.moveaxis([-d2, d1], 0, -1)
    dP[..., :, 2, 3] = np.moveaxis(_psi_gradient(p, g), 0, -1)
    return dP - dP.swapaxes(-1, -2)


def _stack(points) -> GroupoidPoint2D:
    """Points and stacks of points, in order, as one stack."""
    return GroupoidPoint2D(np.column_stack([g.x for g in points]), np.column_stack([g.pi for g in points]))


def _take(g: GroupoidPoint2D, index) -> GroupoidPoint2D:
    return GroupoidPoint2D(g.x[:, index], g.pi[:, index])


def verify_axioms(p: Phi2D, d: Domain2D, samples: int = 100, seed: int = 0,
                  pi_box: float = 1.0) -> dict:
    """Numeric verification of the groupoid axioms on ``samples`` (at
    least 1) sampled points and composable pairs: {check: {"max_dev",
    "tol", "worst_point", "count", "passed"}} for every check of
    AXIOM_TOLERANCES, "count" being the evaluations the check ran and
    "worst_point" the sample of "max_dev", the first of equals. A check
    that ran 0 times has "max_dev" -1.0 and fails; one with a deviation
    that is not finite has the first such as "max_dev", and fails.
    Associativity runs only where a freshly drawn third factor is a
    member, the product pullback on the first half of the pairs. The
    samples are those of ``sample_points`` then ``sample_composable_pairs``,
    from blocks that serve both (``_sample``: two membership passes where
    one block holds them all), then one third factor per pair, in pair
    order, decided in a third; each check then runs once on its stack.
    Derivatives are exact: dP (``_bivector_gradient``) for Jacobi and
    d omega = 0, and for the pullback the Jacobians on (x, pi, pi2) of the
    product, [[I, 0], [pi2 (x) grad h, h I]], and of (x_f, pi2)."""
    if samples < 1:
        raise ValueError(f"verify_axioms needs at least 1 sample, got {samples}")
    rng = np.random.default_rng(seed)
    (gx, gpi), (ax, api, bx, bpi) = _sample(p, d, samples, samples, rng, pi_box)
    g, a, b = GroupoidPoint2D(gx, gpi), GroupoidPoint2D(ax, api), GroupoidPoint2D(bx, bpi)
    x3, pi3 = right(p, b), rng.uniform(-pi_box, pi_box, size=(samples, 2)).T  # third factors
    triples = np.flatnonzero(_members(p, d, x3, pi3))
    report = {name: {"max_dev": -1.0, "tol": tol, "worst_point": None, "count": 0}
              for name, tol in AXIOM_TOLERANCES.items()}

    def record(name, dev, *where):  # dev: one deviation per sample, where: (2, samples) each
        k = int(np.argmax(np.where(np.isfinite(dev), dev, np.inf)))  # the first largest, inf for not finite
        report[name].update(count=dev.size, max_dev=float(dev[k]),
                            worst_point=[float(w[i, k]) for w in where for i in (0, 1)])

    def dev(a, b=0.0, axis=0):  # of a stack of pairs, or with axis (1, 2) of matrices
        return np.max(np.abs(a - b), axis=axis)

    # (i) l(j(x)) = r(j(x)) = x, (iii) identities and (iv) inverses
    zero = np.zeros((2, samples))
    jx, gi = GroupoidPoint2D(g.x, zero), inverse(p, g)
    record("identity_left_right", np.maximum(dev(left(jx), g.x), dev(right(p, jx), g.x)), g.x)
    # g j(r(g)), j(x) g and g g^-1 in one call, g^-1 g at its looser tolerance
    three = multiply(p, _stack([g, jx, g]), _stack([GroupoidPoint2D(right(p, g), zero), g, gi]))
    gr, gl, prod = (_take(three, slice(k * samples, (k + 1) * samples)) for k in range(3))
    prod2 = multiply(p, gi, g, tol=1e-6)
    record("identity_elements", np.max([dev(gr.pi, g.pi), dev(gr.x, g.x), dev(gl.pi, g.pi),
                                        dev(gl.x, g.x)], 0), g.x, g.pi)
    record("inverse", np.max([dev(prod.pi), dev(prod.x, g.x), dev(prod2.pi),
                              dev(prod2.x, x_f(p, g))], 0), g.x, g.pi)

    # (ii)+(v) products: target of product, cocycle, associativity
    ab = multiply(p, a, b)
    record("right_of_product", dev(right(p, ab), right(p, b)), a.x, a.pi, b.pi)
    hg, ha, hb, hab = np.split(h_map(p, _stack([g, a, b, ab])), 4)
    record("cocycle", abs(hab - ha * hb) / np.maximum(1.0, abs(ha * hb)), a.x, a.pi, b.pi)
    if triples.size:
        a3, b3, c = _take(a, triples), _take(b, triples), GroupoidPoint2D(x3[:, triples], pi3[:, triples])
        lhs = multiply(p, _take(ab, triples), c, tol=1e-6)
        rhs = multiply(p, a3, multiply(p, b3, c), tol=1e-6)
        record("associativity", dev(lhs.pi, rhs.pi), a3.x, a3.pi, b3.pi, c.pi)

    # every bivector and its inverse the checks below take, in one stack: of
    # the points, their inverses, and the pullback's products and pairs
    half = max(1, samples // 2)
    a, b, ab, ha = _take(a, slice(half)), _take(b, slice(half)), _take(ab, slice(half)), ha[:half]
    P = bivector(p, _stack([g, gi, ab, a, b]))
    cuts = np.cumsum([samples, samples, half, half])
    (P, P_gi, *_), (W, _, W_ab, W_a, W_b) = np.split(P, cuts), np.split(np.linalg.inv(P), cuts)
    J, J_a = np.split(_x_f_jacobian(p, _stack([g, a])), [samples])
    dh, dh_a = np.split(_h_gradient(p, _stack([g, a])), [samples], -1)

    # (vii')-(x): symplectic checks; l Poisson, r and inversion anti-Poisson
    dP = _bivector_gradient(p, g)
    record("omega_inverse", dev(W @ P, np.eye(4), (1, 2)), g.x, g.pi)
    jacobi = np.einsum("...ad,...dbc->...abc", P, dP)  # cyclic sum of P^{ad} d_d P^{bc}
    record("jacobi_P", dev(jacobi + jacobi.transpose(0, 2, 3, 1) + jacobi.transpose(0, 3, 1, 2),
                           axis=(1, 2, 3)), g.x, g.pi)
    dW = -np.einsum("...ab,...dbc,...ce->...dae", W, dP, W)  # d omega = -W dP W, omega = inv(P)
    # (d omega)_{abc} = d_a w_{bc} - d_b w_{ac} + d_c w_{ab}
    record("d_omega", dev(dW - dW.transpose(0, 2, 1, 3) + dW.transpose(0, 2, 3, 1), axis=(1, 2, 3)),
           g.x, g.pi)
    record("left_poisson", abs(P[:, 0, 1] - p(g.x)), g.x, g.pi)
    record("right_anti_poisson", abs((J[:, :1] @ P @ J[:, 1, :, None])[:, 0, 0] + p(x_f(p, g))),
           g.x, g.pi)
    record("inversion_anti_poisson", dev(_inversion_pullback(P, J, hg, dh, g.pi), -P_gi, (1, 2)),
           g.x, g.pi)

    # (ix) P* omega = pi1* omega + pi2* omega on the first half of the pairs,
    # as maps of c = (x, pi, pi2): c -> (x, pi + h pi2), c -> (x, pi), c -> (x_f, pi2)
    first = np.eye(4, 6)
    product, second = (np.tile(np.eye(4, 6, k), (half, 1, 1)) for k in (0, 2))
    product[:, 2:, :4] += b.pi.T[:, :, None] * dh_a.T[:, None, :]
    product[:, 2:, 4:] = ha[:, None, None] * np.eye(2)
    second[:, :2, :4] = J_a
    record("product_pullback", dev(product.swapaxes(1, 2) @ W_ab @ product,
                                   first.T @ W_a @ first + second.swapaxes(1, 2) @ W_b @ second, (1, 2)),
           a.x, a.pi, b.pi)

    for entry in report.values():
        entry["passed"] = bool(entry["count"] > 0 and entry["max_dev"] <= entry["tol"])
    return report
