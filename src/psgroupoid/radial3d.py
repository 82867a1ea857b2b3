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

FIBER_SU2 = "SU2"
FIBER_S2XR = "S2xR"

VERDICT_SMOOTH_CONSTANT = "smooth_constant_area"
VERDICT_SMOOTH_REGULAR = "smooth_regular"
VERDICT_SINGULAR = "singular"


@dataclass(frozen=True)
class RadialProfile:
    """Radial coefficient f(R) on a validity range 0 < Rmin < Rmax,
    required to be nonvanishing there (checked on a 1024-point sample)."""

    f: ex.Expr
    r_min: float
    r_max: float
    fprime: ex.Expr = field(init=False)
    area_expr: ex.Expr = field(init=False)
    darea: ex.Expr = field(init=False)
    d2area: ex.Expr = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("range must satisfy 0 < Rmin < Rmax")
        object.__setattr__(self, "fprime", ex.differentiate(self.f, "R"))
        # A(R) = 4 pi R / f(R), kept symbolic so A' and A'' are exact
        a = ex.Mul(ex.Const(FOUR_PI), ex.Div(ex.Var("R"), self.f))
        object.__setattr__(self, "area_expr", a)
        object.__setattr__(self, "darea", ex.differentiate(a, "R"))
        object.__setattr__(self, "d2area",
                           ex.differentiate(self.darea, "R"))
        grid = np.linspace(self.r_min, self.r_max, 1024)
        vals = ex.evaluate_array(self.f, {"R": grid})
        if np.any(np.abs(vals) < 1e-12) or np.any(~np.isfinite(vals)):
            raise ValueError("f must be nonzero and finite on the range")

    @classmethod
    def parse(cls, source: str, r_min: float, r_max: float) -> "RadialProfile":
        return cls(f=ex.parse(source, ["R"]), r_min=r_min, r_max=r_max)

    def check_range(self, R: float):
        if not (self.r_min <= R <= self.r_max):
            raise ValueError(f"R = {R:g} outside the validity range "
                             f"[{self.r_min:g}, {self.r_max:g}]")

    def f_at(self, R: float) -> float:
        return ex.evaluate(self.f, {"R": float(R)})


def area(p: RadialProfile, R: float) -> float:
    """Symplectic area of the leaf at radius R: A = 4 pi R / f(R)."""
    p.check_range(R)
    return ex.evaluate(p.area_expr, {"R": float(R)})


def c_invariant(p: RadialProfile, R: float) -> float:
    """C(R) = R f'(R) / f(R), equivalently 1 - f A' / (4 pi)."""
    p.check_range(R)
    R = float(R)
    return R * ex.evaluate(p.fprime, {"R": R}) / p.f_at(R)


def c_invariant_from_area(p: RadialProfile, R: float) -> float:
    """The same invariant through the area derivative (cross-check)."""
    p.check_range(R)
    R = float(R)
    return 1.0 - p.f_at(R) * ex.evaluate(p.darea, {"R": R}) / FOUR_PI


def classify_fiber(p: RadialProfile, R: float, tol: float = 1e-9) -> str:
    """S2xR on the constant-area stratum |C - 1| <= tol, SU2 otherwise."""
    return FIBER_S2XR if abs(c_invariant(p, R) - 1.0) <= tol else FIBER_SU2


def period(p: RadialProfile, R: float) -> float:
    """Identification period 4 pi (1 - C(R)) / f(R) of the quotient
    direction; zero exactly on the constant-area stratum."""
    p.check_range(R)
    return FOUR_PI * (1.0 - c_invariant(p, R)) / p.f_at(R)


def _bisect(func, lo, hi, tol=1e-10):
    flo = func(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= tol:
            return mid
        fm = func(mid)
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
    A = ex.evaluate_array(p.area_expr, {"R": grid})
    dA = ex.evaluate_array(p.darea, {"R": grid})
    C = np.array([c_invariant(p, R) for R in grid])
    scale = max(1.0, float(np.max(np.abs(A))))
    nonconstant = float(np.max(A) - np.min(A)) > 1e-8 * scale

    def darea_at(R):
        return ex.evaluate(p.darea, {"R": float(R)})

    def d2area_at(R):
        return ex.evaluate(p.d2area, {"R": float(R)})

    critical = []
    search = range(n_samples - 1) if nonconstant else range(0)
    for k in search:
        if dA[k] == 0.0:
            critical.append({"R": float(grid[k]), "kind": "zero"})
        elif (dA[k] < 0) != (dA[k + 1] < 0):
            root = _bisect(darea_at, float(grid[k]), float(grid[k + 1]))
            critical.append({"R": float(root), "kind": "sign_change"})
    if nonconstant and dA[-1] == 0.0:
        critical.append({"R": float(grid[-1]), "kind": "zero"})
    # degenerate zeros: A' touches zero without changing sign; locate
    # candidates as extrema of A' and keep those at plateau level
    d2 = ex.evaluate_array(p.d2area, {"R": grid})
    for k in search:
        if (d2[k] < 0) != (d2[k + 1] < 0):
            root = _bisect(d2area_at, float(grid[k]), float(grid[k + 1]))
            if abs(darea_at(root)) <= 1e-12 * scale:
                if not any(abs(c["R"] - root) < 1e-6 for c in critical):
                    critical.append({"R": float(root), "kind": "degenerate"})
    critical.sort(key=lambda c: c["R"])

    if not nonconstant:
        verdict = VERDICT_SMOOTH_CONSTANT
    elif critical:
        verdict = VERDICT_SINGULAR
    else:
        verdict = VERDICT_SMOOTH_REGULAR

    samples = []
    for k in range(n_samples):
        fiber = FIBER_S2XR if abs(C[k] - 1.0) <= 1e-9 else FIBER_SU2
        samples.append({
            "R": float(grid[k]),
            "A": float(A[k]),
            "dA": float(dA[k]),
            "C": float(C[k]),
            "fiber": fiber,
            "period": float(FOUR_PI * (1.0 - C[k]) / p.f_at(grid[k])),
        })
    return {
        "range": [p.r_min, p.r_max],
        "f": ex.to_string(p.f),
        "samples": samples,
        "critical_points": critical,
        "nonconstant_area": bool(nonconstant),
        "verdict": verdict,
    }


def decompose(v, X):
    """Split v into its radial component along X and tangential rest."""
    v = np.asarray(v, dtype=float)
    X = np.asarray(X, dtype=float)
    norm = np.linalg.norm(X)
    if norm == 0.0:
        raise ValueError("cannot decompose against the zero vector")
    unit = X / norm
    v_r = float(v @ unit)
    return v_r, v - v_r * unit


def radial_gauss_residual(p: RadialProfile, m: ps.DiscretizedMorphism) -> float:
    """Residual of the decomposed constraint X' + f(|X|) eta_t x X = 0."""
    if m.n != 3:
        raise ValueError("radial decomposition needs a 3D morphism")
    radii = np.linalg.norm(m.X, axis=1)
    if np.any(radii < 1e-6):
        raise ValueError("path passes too close to the origin")
    Xp = ps.path_derivative(m.X)
    worst = 0.0
    for k in range(m.N + 1):
        p.check_range(radii[k])
        _, eta_t = decompose(m.eta[k], m.X[k])
        res = Xp[k] + p.f_at(radii[k]) * np.cross(eta_t, m.X[k])
        worst = max(worst, float(np.linalg.norm(res)))
    return worst


def rescale(p: RadialProfile, m: ps.DiscretizedMorphism,
            c_margin: float = 1e-6) -> ps.DiscretizedMorphism:
    """New covector a with radial part f/(1-C) eta_r and tangential part
    f eta_t, bringing the constraint to the unit-coefficient form
    X' + a_t x X = 0. Undefined where C = 1 (constant-area stratum)."""
    if m.n != 3:
        raise ValueError("rescaling needs a 3D morphism")
    radii = np.linalg.norm(m.X, axis=1)
    if np.any(radii < 1e-6):
        raise ValueError("path passes too close to the origin")
    a = np.empty_like(m.eta)
    for k in range(m.N + 1):
        R = radii[k]
        p.check_range(R)
        C = c_invariant(p, R)
        if abs(C - 1.0) <= c_margin:
            raise ValueError(f"C(R) = 1 within {c_margin:g} at R = {R:g}; "
                             "rescaling is undefined on this stratum")
        f = p.f_at(R)
        eta_r, eta_t = decompose(m.eta[k], m.X[k])
        a[k] = (f / (1.0 - C)) * eta_r * (m.X[k] / R) + f * eta_t
    return ps.DiscretizedMorphism(n=3, X=m.X.copy(), eta=a)


def analyze_to_csv(report: dict) -> str:
    """Plot-ready CSV of the per-sample table with a header row."""
    lines = ["R,A,dA,C,fiber,period"]
    for s in report["samples"]:
        lines.append("{R:.17g},{A:.17g},{dA:.17g},{C:.17g},{fiber},"
                     "{period:.17g}".format(**s))
    return "\n".join(lines) + "\n"
