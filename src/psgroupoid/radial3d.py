"""Rotation-invariant Poisson structures alpha^{ij} = f(|x|) eps^{ijl} x^l
on R^3 minus the origin: symplectic area of the spherical leaves, the
scaling invariant C(R), fiber classification, quotient period, and the
radial/tangential decomposition of the constraint equation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from . import pathspace as ps

__all__ = [
    "RadialProfile", "area", "c_invariant", "classify_fiber", "period",
    "analyze", "decompose", "radial_gauss_residual", "rescale",
]

FOUR_PI = 4.0 * math.pi
STRATUM_TOL = 1e-9  # |C - 1| up to which a radius is on the constant-area stratum

FIBER_SU2 = "SU2"
FIBER_S2XR = "S2xR"

VERDICT_SMOOTH_CONSTANT = "smooth_constant_area"
VERDICT_SMOOTH_REGULAR = "smooth_regular"
VERDICT_SINGULAR = "singular"


@dataclass(frozen=True)
class RadialProfile:
    """Radial coefficient f(R) on a finite validity range 0 < Rmin < Rmax,
    required to be nonvanishing there (checked on a 1024-point sample).
    Each quantity below takes a radius or an array of radii."""

    f: ex.Expr
    r_min: float
    r_max: float
    area_expr: ex.Expr = field(init=False)
    darea: ex.Expr = field(init=False)
    d2area: ex.Expr = field(init=False)
    c_expr: ex.Expr = field(init=False)
    period_expr: ex.Expr = field(init=False)
    columns: ex.Program = field(init=False, repr=False, compare=False)  # A, A', C, period, A''

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError("range must satisfy 0 < Rmin < Rmax < inf")
        R = ex.Var("R")
        # A(R) = 4 pi R / f(R), kept symbolic so A' and A'' are exact
        a = ex.Mul(ex.Const(FOUR_PI), ex.Div(R, self.f))
        darea = ex.differentiate(a, "R")
        # C(R) = R f'(R) / f(R); period 4 pi (1 - C(R)) / f(R)
        c = ex.Div(ex.Mul(R, ex.differentiate(self.f, "R")), self.f)
        period = ex.Div(ex.Mul(ex.Const(FOUR_PI), ex.Sub(ex.Const(1.0), c)),
                        self.f)
        for name, value in (("area_expr", a), ("darea", darea),
                            ("d2area", ex.differentiate(darea, "R")),
                            ("c_expr", c), ("period_expr", period)):
            object.__setattr__(self, name, value)
        grid = np.linspace(self.r_min, self.r_max, 1024)
        if np.any(np.abs(ex.evaluate(self.f, {"R": grid})) < 1e-12):
            raise ValueError("f must be nonzero on the range")
        object.__setattr__(self, "columns", ex.Program((a, darea, c, period, self.d2area)))

    @classmethod
    def parse(cls, source: str, r_min: float, r_max: float) -> "RadialProfile":
        return cls(f=ex.parse(source, ["R"]), r_min=r_min, r_max=r_max)

    def check_range(self, R):
        """Raise ValueError naming the first radius outside the range."""
        inside = (self.r_min <= R) & (R <= self.r_max)
        if inside is not True and not np.all(inside):
            first = np.ravel(R)[np.argmin(np.ravel(inside))]
            raise ValueError(f"R = {first:g} outside the validity range "
                             f"[{self.r_min:g}, {self.r_max:g}]")

    def f_at(self, R):
        return ex.evaluate(self.f, {"R": R})


def area(p: RadialProfile, R):
    """Symplectic area of the leaf at radius R: A = 4 pi R / f(R)."""
    p.check_range(R)
    return ex.evaluate(p.area_expr, {"R": R})


def c_invariant(p: RadialProfile, R):
    """C(R) = R f'(R) / f(R), equivalently 1 - f A' / (4 pi)."""
    p.check_range(R)
    return ex.evaluate(p.c_expr, {"R": R})


def c_invariant_from_area(p: RadialProfile, R):
    """The same invariant through the area derivative (cross-check)."""
    p.check_range(R)
    return 1.0 - p.f_at(R) * ex.evaluate(p.darea, {"R": R}) / FOUR_PI


def classify_fiber(p: RadialProfile, R: float) -> str:
    """S2xR on the constant-area stratum |C - 1| <= STRATUM_TOL, else SU2."""
    return FIBER_S2XR if abs(c_invariant(p, R) - 1.0) <= STRATUM_TOL else FIBER_SU2


def period(p: RadialProfile, R):
    """Identification period 4 pi (1 - C(R)) / f(R) of the quotient
    direction; zero exactly on the constant-area stratum."""
    p.check_range(R)
    return ex.evaluate(p.period_expr, {"R": R})


def _bisect(e, lo, hi, tol=1e-10):
    flo = ex.evaluate(e, {"R": lo})
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = ex.evaluate(e, {"R": mid})
        if fm == 0.0:
            return mid
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def analyze(p: RadialProfile, n_samples: int = 512) -> dict:
    """Sweep the range, classify each sample, locate critical points of
    the area function, and pass the smooth/singular verdict.

    Critical points are zeros of A': sign changes refined by bisection,
    plus degenerate touching zeros (A' of one sign reaching zero) found
    through sign changes of A'' and accepted when |A'| is at plateau
    level there."""
    if n_samples < 2:
        raise ValueError("need at least two samples")
    grid = np.linspace(p.r_min, p.r_max, n_samples)
    A, dA, C, periods, d2 = ex.evaluate(p.columns, {"R": grid})
    scale = max(1.0, float(np.max(np.abs(A))))
    nonconstant = float(np.max(A) - np.min(A)) > 1e-8 * scale

    critical = []
    search = np.full(n_samples - 1, nonconstant)
    zero = dA == 0.0
    for k in np.flatnonzero(search & (zero[:-1] | ((dA[:-1] < 0) != (dA[1:] < 0)))):
        if zero[k]:
            critical.append({"R": float(grid[k]), "kind": "zero"})
        else:
            root = _bisect(p.darea, float(grid[k]), float(grid[k + 1]))
            critical.append({"R": float(root), "kind": "sign_change"})
    if nonconstant and zero[-1]:
        critical.append({"R": float(grid[-1]), "kind": "zero"})
    # degenerate zeros: A' touches zero without changing sign; locate
    # candidates as extrema of A' and keep those at plateau level
    for k in np.flatnonzero(search & ((d2[:-1] < 0) != (d2[1:] < 0))):
        root = _bisect(p.d2area, float(grid[k]), float(grid[k + 1]))
        if abs(ex.evaluate(p.darea, {"R": root})) <= 1e-12 * scale:
            if not any(abs(c["R"] - root) < 1e-6 for c in critical):
                critical.append({"R": float(root), "kind": "degenerate"})
    critical.sort(key=lambda c: c["R"])

    if not nonconstant:
        verdict = VERDICT_SMOOTH_CONSTANT
    elif critical:
        verdict = VERDICT_SINGULAR
    else:
        verdict = VERDICT_SMOOTH_REGULAR

    columns = (grid, A, dA, C,
               np.where(np.abs(C - 1.0) <= STRATUM_TOL, FIBER_S2XR, FIBER_SU2), periods)
    samples = [dict(zip(("R", "A", "dA", "C", "fiber", "period"), row))
               for row in zip(*(column.tolist() for column in columns))]
    return {
        "range": [p.r_min, p.r_max],
        "f": ex.to_string(p.f),
        "samples": samples,
        "critical_points": critical,
        "nonconstant_area": bool(nonconstant),
        "verdict": verdict,
    }


def decompose(v, X):
    """Split v into its radial component along X and tangential rest;
    v and X are vectors or arrays of them, shape (..., 3)."""
    v = np.asarray(v, dtype=float)
    X = np.asarray(X, dtype=float)
    norm = np.linalg.norm(X, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise ValueError("cannot decompose against the zero vector")
    unit = X / norm
    v_r = np.sum(v * unit, axis=-1)
    return v_r, v - v_r[..., None] * unit


def _path_radii(p: RadialProfile, m: ps.DiscretizedMorphism, e: ex.Expr):
    """Radii of a 3D path, and e at those before the first one outside
    the range: errors come in the order of a node-by-node sweep."""
    if m.n != 3:
        raise ValueError("radial decomposition needs a 3D morphism")
    radii = np.linalg.norm(m.X, axis=1)
    if np.any(radii < 1e-6):
        raise ValueError("path passes too close to the origin")
    inside = (p.r_min <= radii) & (radii <= p.r_max)
    first_out = len(radii) if inside.all() else int(np.argmin(inside))
    return radii, ex.evaluate(e, {"R": radii[:first_out]})


def radial_gauss_residual(p: RadialProfile, m: ps.DiscretizedMorphism) -> float:
    """Residual of the decomposed constraint X' + f(|X|) eta_t x X = 0."""
    radii, f = _path_radii(p, m, p.f)
    p.check_range(radii)
    _, eta_t = decompose(m.eta, m.X)
    res = ps.path_derivative(m.X) + f[:, None] * np.cross(eta_t, m.X)
    return float(np.max(np.linalg.norm(res, axis=1)))


def rescale(p: RadialProfile, m: ps.DiscretizedMorphism) -> ps.DiscretizedMorphism:
    """New covector a with radial part f/(1-C) eta_r and tangential part
    f eta_t, bringing the constraint to the unit-coefficient form
    X' + a_t x X = 0. Undefined where C = 1 (constant-area stratum)."""
    radii, C = _path_radii(p, m, p.c_expr)
    stratum = np.abs(C - 1.0) <= 1e-6
    if stratum.any():
        R = radii[np.argmax(stratum)]
        raise ValueError(f"C(R) = 1 within 1e-06 at R = {R:g}; "
                         "rescaling is undefined on this stratum")
    p.check_range(radii)
    f = p.f_at(radii)
    eta_r, eta_t = decompose(m.eta, m.X)
    a = ((f / (1.0 - C)) * eta_r)[:, None] * (m.X / radii[:, None]) \
        + f[:, None] * eta_t
    return ps.DiscretizedMorphism(n=3, X=m.X.copy(), eta=a)


def analyze_to_csv(report: dict) -> str:
    """Plot-ready CSV of the per-sample table with a header row."""
    lines = ["R,A,dA,C,fiber,period"]
    for s in report["samples"]:
        lines.append("{R!r},{A!r},{dA!r},{C!r},{fiber},{period!r}".format(**s))
    return "\n".join(lines) + "\n"
