"""The four workloads. Each is a sequence of rounds; a round is a list of
operations whose inputs come from ``numpy.random.default_rng([seed,
round])``, so a seed fixes every input. An operation is one call (or one
short chain of calls) into psgroupoid's public API, timed on its own, and
a check of its output against ``refs`` or against a property the method
must have.

Package functions are always looked up as module attributes at call
time, so that the wrappers ``tracer.Tracer.install`` puts in place see
every call.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs
from psgroupoid import expr as ex
from psgroupoid import groupoid2d as g2
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import poisson
from psgroupoid import radial3d as rad

# Tolerances of the acceptance suite (tests/test_acceptance.py); no check
# here is looser.
TOL_POINT = 1e-12          # criteria 2 and 3: closed forms, algebraic axioms
TOL_ROUND_TRIP = 1e-6      # criteria 6 and 8: path <-> groupoid round trips
TOL_CONCAT = 1e-5          # criteria 6 and 8: concatenation vs product
TOL_CASIMIR = 1e-8         # criterion 8
TOL_HOLONOMY = 1e-8        # criterion 8: holonomy vs the group exponential
TOL_RESIDUAL_GAP = 1e-10   # criterion 9
TOL_RESCALED = 1e-6        # criterion 9
TOL_CRITICAL_R = 1e-6      # criterion 9
TOL_GAUSS = 1e-5           # residual of a constraint solution (gauge_flow, to_groupoid)
AXIOM_TOLERANCES = {
    "identity_left_right": 1e-12, "identity_elements": 1e-12, "inverse": 1e-12,
    "associativity": 1e-12, "cocycle": 1e-12, "right_of_product": 1e-12,
    "omega_inverse": 1e-9, "jacobi_P": 1e-4, "d_omega": 1e-4,
    "left_poisson": 1e-9, "right_anti_poisson": 1e-9,
    "inversion_anti_poisson": 1e-6, "product_pullback": 1e-4,
}

# Faults of today's code that fail one fixed input in every round.
FAULTS = {
    "contains-ray-sampling":
        "groupoid2d.contains decides h > 0 from 256 samples of the ray and "
        "answers 'member' when h dips below 0 between two samples",
    "psi-cancellation":
        "the quotient branch of groupoid2d.psi loses about eps/|phi| near phi = 0",
    "d-omega-step":
        "verify_axioms' finite-difference d_omega check exceeds 1e-4 at a "
        "sampled point where h is small",
}
CONTAINS_PROBE = ((-1.8280564724565642, -0.8964528730015027),
                  (0.8935436327479551, -1.8194943096187295))
PSI_PROBE = ((6.0170770435519216e-05, 0.210501258325833),
             (0.643640542576271, -1.8210066516286916))
D_OMEGA_PROBE_SEED = 43   # first seed at which verify_axioms(x1*x2, 10) fails d_omega

PI_U = "3.141592653589793*u"


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], "str | None"]
    inputs: dict
    fault: "str | None" = None


def _floats(v):
    return [float(a) for a in np.ravel(v)]


def csv(v):
    """Comma-separated numbers that parse back to the same floats."""
    return ",".join(repr(a) for a in _floats(v))


def deviation(got, ref) -> float:
    """max |got - ref| / max(1, |ref|), elementwise."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def expect_close(what, got, ref, tol):
    d = deviation(got, ref)
    if not d <= tol:
        return f"{what}: deviation {d:.3e} > {tol:g} (got {_floats(got)}, expected {_floats(ref)})"
    return None


def expect_rel(what, got, ref, tol):
    d = abs(got - ref) / abs(ref)
    if not d <= tol:
        return f"{what}: relative error {d:.3e} > {tol:g} (got {float(got)!r}, expected {float(ref)!r})"
    return None


def expect_at_most(what, value, tol):
    if not value <= tol:
        return f"{what} {value:.3e} > {tol:g}"
    return None


def first_error(*messages):
    return next((m for m in messages if m), None)


def sphere(rng, radius):
    v = rng.standard_normal(3)
    return v * (radius / np.linalg.norm(v))


def ball(rng, radius):
    return sphere(rng, radius) * rng.uniform() ** (1.0 / 3.0)


def _near_box_edge(x, margin=1e-9):
    b = refs.BOX
    return min(abs(x[0] - b[0]), abs(x[0] - b[1]), abs(x[1] - b[2]), abs(x[1] - b[3])) < margin


def check_cubic_analysis(rep, lo, hi, samples):
    """radial3d.analyze of R/(1+(R-1)^3) on [lo, hi] with lo < 1 < hi:
    singular, one critical point at R = 1, and every sample against the
    closed forms."""
    crit = rep["critical_points"]
    if rep["verdict"] != "singular" or len(crit) != 1:
        return f"verdict {rep['verdict']} with {len(crit)} critical points"
    rows = rep["samples"]
    R = [row["R"] for row in rows]
    errors = [
        expect_at_most("critical point |R - 1|", abs(crit[0]["R"] - refs.CUBIC_CRITICAL_R), TOL_CRITICAL_R),
        expect_close("R grid", R, np.linspace(lo, hi, samples), TOL_POINT),
        expect_close("A", [row["A"] for row in rows], [refs.cubic_area(r) for r in R], TOL_POINT),
        expect_close("dA", [row["dA"] for row in rows], [refs.cubic_darea(r) for r in R], TOL_POINT),
        expect_close("C", [row["C"] for row in rows], [refs.cubic_c(r) for r in R], TOL_POINT),
        expect_close("period", [row["period"] for row in rows], [refs.cubic_period(r) for r in R], TOL_POINT),
    ]
    fibers = ["S2xR" if abs(refs.cubic_c(r) - 1.0) <= 1e-9 else "SU2" for r in R]
    if [row["fiber"] for row in rows] != fibers:
        errors.append("fiber column differs from |C - 1| <= 1e-9")
    return first_error(*errors)


class Workload:
    name = ""
    trace_rounds = 1
    in_child_processes = False

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir

    def rng(self, index: int):
        return np.random.default_rng([self.seed, index])

    def round(self, index: int) -> list:
        raise NotImplementedError

    def trace_children(self, tracer):
        """Hand the tracer to child processes, where there are any."""

    def after_op(self, op_id):
        """Called after each timed operation."""

    def warm_up(self, ops):
        """One call of the first operation of each kind."""
        seen = set()
        for op in ops:
            if op.kind not in seen:
                seen.add(op.kind)
                try:
                    op.call()
                except Exception:  # the timed call fails again and is counted
                    pass


# ---------------------------------------------------------------------------
# g2d-verify

class G2DVerify(Workload):
    """verify_axioms on the acceptance suite's four structures.

    On seeds drawn at random the d_omega check of x1*x2 and x2 fails now
    and then (see README), so their failure count would depend on the
    workload seed: they run on the fixed seed 0, and the d_omega fault is
    probed by a fixed failing seed of x1*x2. The structures 0 and
    sin(x1)+2 run on seeds drawn from the workload seed. Sample counts put
    the fixed x2 call in the middle of each round by cost, so the median
    operation does not depend on the seed."""

    name = "g2d-verify"
    trace_rounds = 1

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.box = g2.Domain2D(*refs.BOX)
        self.phis = {src: g2.Phi2D.parse(src) for src in ("0", "sin(x1)+2", "x2", "x1*x2")}

    def _op(self, src, samples, seed, fault=None):
        phi = self.phis[src]

        def call():
            return g2.verify_axioms(phi, self.box, samples=samples, seed=seed)

        def check(report):
            missing = sorted(set(AXIOM_TOLERANCES) - set(report))
            if missing:
                return f"report lacks {missing}"
            failed = [f"{name} {report[name]['max_dev']:.3e} > {tol:g}"
                      for name, tol in AXIOM_TOLERANCES.items()
                      if not report[name]["max_dev"] <= tol]
            return "; ".join(failed) or None

        return Op(f"groupoid2d.verify_axioms[{src}]", call, check,
                  {"phi": src, "samples": samples, "seed": seed}, fault)

    def warm_up(self, ops):
        """One call of verify_axioms, on the cheapest structure."""
        ops[0].call()

    def round(self, index):
        rng = self.rng(index)
        return [
            self._op("0", 8, int(rng.integers(2 ** 31))),
            self._op("sin(x1)+2", 8, int(rng.integers(2 ** 31))),
            self._op("x2", 16, 0),
            self._op("x1*x2", 10, 0),
            self._op("x1*x2", 10, D_OMEGA_PROBE_SEED, fault="d-omega-step"),
        ]


# ---------------------------------------------------------------------------
# pointwise

def draw_qp_query(rng):
    """(x, pi) in [-2, 2]^4 for a membership query. Draws whose two ray
    roots of h lie within 1/128 of each other are redrawn: there the
    256-sample test is wrong or right depending on where its grid falls,
    which would make the failure count depend on the seed. The fault is
    probed by CONTAINS_PROBE in every round instead."""
    while True:
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        roots = refs.qp_ray_roots(x, pi)
        if len(roots) == 2 and abs(roots[0] - roots[1]) < 1.0 / 128:
            continue
        if (abs(x[0] * pi[0] + 1) < 1e-9 or abs(x[1] * pi[1] - 1) < 1e-9
                or _near_box_edge(refs.qp_x_f(x, pi))):
            continue
        return x, pi


def draw_qp_point(rng):
    """A quantum-plane groupoid point where the reference values are well
    conditioned: both factors of h at least 1e-2 (relative error of h below
    eps/1e-2), |psi| >= 1e-3 as in criterion 2, and |phi psi| >= 1e-2, since
    the quotient form of psi carries an error of about eps/|phi| (that
    fault is probed by PSI_PROBE in every round)."""
    while True:
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        if not refs.qp_member(x, pi):
            continue
        if min(abs(1 - x[1] * pi[1]), abs(1 + x[0] * pi[0])) < 1e-2:
            continue
        psi = refs.qp_psi(x, pi)
        if abs(psi) < 1e-3 or abs(x[0] * x[1] * psi) < 1e-2:
            continue
        return x, pi


def draw_path_qp_point(rng):
    """x in [-1.5, 1.5]^2 and pi in [-0.5, 0.5]^2 (criterion 6 draws pi
    from [-0.5, 0.5]^2 too): |x pi| <= 0.75 keeps both factors of h above
    0.25, where the trapezoid round trip holds its tolerance."""
    return rng.uniform(-1.5, 1.5, 2), rng.uniform(-0.5, 0.5, 2)


def draw_second_factor(rng, member, xf):
    while True:
        pi2 = rng.uniform(-2, 2, 2)
        if member(xf, pi2):
            return pi2


def draw_sin_query(rng):
    while True:
        x = rng.uniform(-9, 9, 2)
        pi = rng.uniform(-2, 2, 2)
        if not (_near_box_edge(x) or _near_box_edge(refs.sin_x_f(x, pi))):
            return x, pi


def draw_sin_point(rng):
    """A member with |psi| >= 1e-2, away from psi's zero set where a
    relative tolerance means nothing."""
    while True:
        x, pi = draw_sin_query(rng)
        if refs.sin_member(x, pi) and abs(refs.sin_psi(x, pi)) >= 1e-2:
            return x, pi


QP_REFS = {"x_f": refs.qp_x_f, "h": refs.qp_h, "psi": refs.qp_psi,
           "mul": refs.qp_multiply, "inv": refs.qp_inverse}
SIN_REFS = {"x_f": refs.sin_x_f, "h": refs.sin_h, "psi": refs.sin_psi,
            "mul": refs.sin_multiply, "inv": refs.sin_inverse}


class Pointwise(Workload):
    """Single-point calls, one per operation, on the 2D groupoids, the
    Lie duals, the cubic radial profile and the expression evaluator."""

    name = "pointwise"
    trace_rounds = 100

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.box = g2.Domain2D(*refs.BOX)
        self.qp = g2.Phi2D.parse("x1*x2")
        self.sin = g2.Phi2D.parse("sin(x1)+2")
        self.specs = {name: ld.builtin_spec(name) for name in ("su2", "so3")}
        self.cubic = rad.RadialProfile.parse(refs.CUBIC, 0.6, 1.4)
        self.cubic_expr = ex.parse(refs.CUBIC, ["R"])

    def _g2d_ops(self, label, phi, query, point, pi2, member, ref):
        """The six maps on one structure: a membership query, and the
        other five at one groupoid point (pi2 completes a product)."""
        x_q, pi_q = query
        x, pi = point
        G = g2.GroupoidPoint2D
        xf_ref = ref["x_f"](x, pi)
        inputs = {"phi": label, "x": _floats(x), "pi": _floats(pi)}
        ops = [
            Op(f"groupoid2d.contains[{label}]",
               lambda: g2.contains(phi, self.box, G(x_q, pi_q)),
               lambda got, want=member(x_q, pi_q): (
                   None if got == want else f"member {got}, expected {want}"),
               {"phi": label, "x": _floats(x_q), "pi": _floats(pi_q)}),
            Op(f"groupoid2d.x_f[{label}]", lambda: g2.x_f(phi, G(x, pi)),
               lambda got: expect_close("x_f", got, xf_ref, TOL_POINT), inputs),
            Op(f"groupoid2d.h_map[{label}]", lambda: g2.h_map(phi, G(x, pi)),
               lambda got: expect_rel("h", got, ref["h"](x, pi), TOL_POINT), inputs),
            Op(f"groupoid2d.psi[{label}]", lambda: g2.psi(phi, G(x, pi)),
               lambda got: expect_rel("psi", got, ref["psi"](x, pi), TOL_POINT), inputs),
            Op(f"groupoid2d.multiply[{label}]",
               lambda: g2.multiply(phi, G(x, pi), G(xf_ref, pi2)),
               lambda got: first_error(
                   expect_close("product x", got.x, x, TOL_POINT),
                   expect_close("product pi", got.pi, ref["mul"](x, pi, pi2)[1], TOL_POINT)),
               dict(inputs, pi2=_floats(pi2))),
            Op(f"groupoid2d.inverse[{label}]", lambda: g2.inverse(phi, G(x, pi)),
               lambda got: first_error(
                   expect_close("inverse x", got.x, ref["inv"](x, pi)[0], TOL_POINT),
                   expect_close("inverse pi", got.pi, ref["inv"](x, pi)[1], TOL_POINT)),
               inputs),
        ]
        return ops

    def _lie_ops(self, name, rng):
        spec = self.specs[name]
        xi = ball(rng, 2.0)
        w1, w2 = ball(rng, 1.0), ball(rng, 1.0)
        g, h = refs.group_exp(name, w1), refs.group_exp(name, w2)
        A = refs.adjoint(name, g)
        xi2 = A.T @ xi
        if name == "su2":
            prod = refs.quat_left_matrix(refs.quat_product(refs.su2_quat(w1), refs.su2_quat(w2)))
        else:
            prod = g @ h
        P = ld.LieGroupoidPoint
        inputs = {"spec": name, "xi": _floats(xi), "w": _floats(w1), "w2": _floats(w2)}
        return [
            Op(f"lie_dual.multiply_lie[{name}]",
               lambda: ld.multiply_lie(spec, P(xi, g), P(xi2, h)),
               lambda got: first_error(expect_close("xi", got.xi, xi, TOL_POINT),
                                       expect_close("g", got.g, prod, TOL_POINT)),
               inputs),
            Op(f"lie_dual.right_lie[{name}]", lambda: ld.right_lie(spec, P(xi, g)),
               lambda got: first_error(
                   expect_close("r", got, xi2, TOL_POINT),
                   expect_at_most("Casimir drift |r| - |xi|",
                                  abs(np.linalg.norm(got) - np.linalg.norm(xi)), TOL_POINT)),
               inputs),
            Op(f"lie_dual.coadjoint[{name}]", lambda: ld.coadjoint(spec, g, xi),
               lambda got: first_error(
                   expect_close("Ad*", got, A @ xi, TOL_POINT),
                   expect_at_most("Casimir drift |Ad* xi| - |xi|",
                                  abs(np.linalg.norm(got) - np.linalg.norm(xi)), TOL_POINT)),
               inputs),
        ]

    def _radial_ops(self, rng):
        p = self.cubic
        R = float(rng.uniform(0.6, 1.4))
        # half of the fiber queries land on the constant-area stratum around R = 1
        Rf = float(rng.uniform(1 - 1e-5, 1 + 1e-5) if rng.uniform() < 0.5 else rng.uniform(0.6, 1.4))
        want = "S2xR" if abs(refs.cubic_c(Rf) - 1.0) <= 1e-9 else "SU2"
        Re = float(rng.uniform(0.6, 1.4))
        return [
            Op("radial3d.area", lambda: rad.area(p, R),
               lambda got: expect_rel("A", got, refs.cubic_area(R), TOL_POINT), {"R": R}),
            Op("radial3d.c_invariant", lambda: rad.c_invariant(p, R),
               lambda got: expect_close("C", got, refs.cubic_c(R), TOL_POINT), {"R": R}),
            Op("radial3d.classify_fiber", lambda: rad.classify_fiber(p, Rf),
               lambda got: None if got == want else f"fiber {got}, expected {want}", {"R": Rf}),
            Op("radial3d.period", lambda: rad.period(p, R),
               lambda got: expect_close("period", got, refs.cubic_period(R), TOL_POINT), {"R": R}),
            Op("expr.evaluate", lambda: ex.evaluate(self.cubic_expr, {"R": Re}),
               lambda got: expect_rel("f(R)", got, refs.cubic_f(Re), TOL_POINT), {"R": Re}),
        ]

    def round(self, index):
        rng = self.rng(index)
        x, pi = draw_qp_point(rng)
        pi2 = draw_second_factor(rng, refs.qp_member, refs.qp_x_f(x, pi))
        ops = self._g2d_ops("x1*x2", self.qp, draw_qp_query(rng), (x, pi), pi2,
                            refs.qp_member, QP_REFS)
        x, pi = draw_sin_point(rng)
        pi2 = draw_second_factor(rng, refs.sin_member, refs.sin_x_f(x, pi))
        ops += self._g2d_ops("sin(x1)+2", self.sin, draw_sin_query(rng), (x, pi), pi2,
                             refs.sin_member, SIN_REFS)
        for name in ("su2", "so3"):
            ops += self._lie_ops(name, rng)
        ops += self._radial_ops(rng)
        ops += self._probes()
        return ops

    def _probes(self):
        G = g2.GroupoidPoint2D
        xc, pc = CONTAINS_PROBE
        xp, pp = PSI_PROBE
        return [
            Op("groupoid2d.contains[x1*x2]", lambda: g2.contains(self.qp, self.box, G(xc, pc)),
               lambda got, want=refs.qp_member(xc, pc): (
                   None if got == want else f"member {got}, expected {want}"),
               {"phi": "x1*x2", "x": list(xc), "pi": list(pc)}, "contains-ray-sampling"),
            Op("groupoid2d.psi[x1*x2]", lambda: g2.psi(self.qp, G(xp, pp)),
               lambda got: expect_rel("psi", got, refs.qp_psi(xp, pp), TOL_POINT),
               {"phi": "x1*x2", "x": list(xp), "pi": list(pp)}, "psi-cancellation"),
        ]


# ---------------------------------------------------------------------------
# paths

class Paths(Workload):
    """Grid work: Gauss-law solves, path <-> groupoid round trips, gauge
    flows, concatenation, the radial decomposition and the Lie duals."""

    name = "paths"
    trace_rounds = 2
    N_QP = 1000
    N_QP_SOLVE = 2000
    N_GAUGE = 1000
    N_RADIAL_SOLVE = 1000
    N_RADIAL = 3000           # criterion 9's grid
    N_LIE = 500
    ANALYZE_SAMPLES = 512

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.qp = g2.Phi2D.parse("x1*x2")
        self.s_qp = self.qp.structure()
        self.s_cubic = poisson.rot_invariant3(ex.parse(refs.CUBIC, ["R"]))
        self.cubic = rad.RadialProfile.parse(refs.CUBIC, 0.6, 1.4)
        self.specs = {name: ld.builtin_spec(name) for name in ("su2", "so3", "heisenberg3")}

    def _qp_ops(self, rng):
        G = g2.GroupoidPoint2D
        x0 = rng.uniform(0.5, 1.0, 2)
        eta = refs.smooth_eta(rng, self.N_QP_SOLVE, 2, 0.3)
        xe, pe = draw_path_qp_point(rng)
        xg, pg = draw_path_qp_point(rng)
        Xg, etag = refs.qp_embed(xg, pg, self.N_GAUGE)
        m_gauge = ps.DiscretizedMorphism(n=2, X=Xg, eta=etag)
        c1, c2 = float(rng.uniform(0.05, 0.15)), float(rng.uniform(0.02, 0.08))
        beta = ps.GaugeField.parse([f"{c1!r}*sin({PI_U})*x2", f"{c2!r}*u*(1-u)*x1"], 2)
        xa, pa = draw_path_qp_point(rng)
        xb = refs.qp_x_f(xa, pa)
        while True:
            pb = rng.uniform(-0.5, 0.5, 2)
            if min(abs(1 - xb[1] * pb[1]), abs(1 + xb[0] * pb[0])) >= 0.25:
                break
        prod_pi = refs.qp_multiply(xa, pa, pb)[1]

        def solve():
            return ps.solve_gauss(self.s_qp, x0, eta)

        def embed_round_trip():
            return g2.invariants(self.qp, g2.embed(self.qp, G(xe, pe), N=self.N_QP))

        def gauge():
            flowed = ps.gauge_flow(self.s_qp, m_gauge, beta, s_total=0.5)
            return g2.invariants(self.qp, flowed)

        def concat():
            glued = ps.concatenate(g2.embed(self.qp, G(xa, pa), N=self.N_QP, tapered=True),
                                   g2.embed(self.qp, G(xb, pb), N=self.N_QP, tapered=True))
            return g2.invariants(self.qp, glued)

        return [
            Op("pathspace.solve_gauss[x1*x2]", solve,
               lambda m: first_error(
                   expect_close("X(0)", m.X[0], x0, 0.0),
                   expect_at_most("Gauss residual", refs.gauss_residual(refs.qp_alpha, m.X, m.eta), TOL_GAUSS)),
               {"x0": _floats(x0), "N": self.N_QP_SOLVE}),
            Op("groupoid2d.embed+invariants[x1*x2]", embed_round_trip,
               lambda g: first_error(expect_close("x", g.x, xe, TOL_ROUND_TRIP),
                                     expect_close("pi", g.pi, pe, TOL_ROUND_TRIP)),
               {"x": _floats(xe), "pi": _floats(pe), "N": self.N_QP}),
            Op("pathspace.gauge_flow+invariants[x1*x2]", gauge,
               lambda g: first_error(expect_close("x", g.x, xg, TOL_ROUND_TRIP),
                                     expect_close("pi", g.pi, pg, TOL_ROUND_TRIP)),
               {"x": _floats(xg), "pi": _floats(pg), "beta": [c1, c2], "N": self.N_GAUGE}),
            Op("pathspace.concatenate+invariants[x1*x2]", concat,
               lambda g: first_error(expect_close("x", g.x, xa, TOL_CONCAT),
                                     expect_close("pi", g.pi, prod_pi, TOL_CONCAT)),
               {"x": _floats(xa), "pi": _floats(pa), "pi2": _floats(pb), "N": self.N_QP}),
        ]

    def _radial_ops(self, rng):
        p, s = self.cubic, self.s_cubic
        N = self.N_RADIAL

        def point():
            R0 = rng.uniform(0.75, 0.95) if rng.uniform() < 0.5 else rng.uniform(1.05, 1.3)
            v = rng.standard_normal(3)
            return R0 * v / np.linalg.norm(v)

        x0 = point()
        eta = refs.smooth_eta(rng, self.N_RADIAL_SOLVE, 3, 0.2)
        # exact solution for eta = a(u) e: X(u) = exp(-f(R) int_0^u a hat(e)) X(0)
        X1 = point()
        e = rng.standard_normal(3)
        e /= np.linalg.norm(e)
        u = np.linspace(0.0, 1.0, N + 1)
        amp = rng.uniform(0.3, 1.0)
        a = amp * np.sin(math.pi * u)
        integral = amp * (1.0 - np.cos(math.pi * u)) / math.pi
        fR = refs.cubic_f(float(np.linalg.norm(X1)))
        X = np.stack([refs.so3_exp(-fR * t * e) @ X1 for t in integral])
        m = ps.DiscretizedMorphism(n=3, X=X, eta=np.outer(a, e))
        lo, hi = rng.uniform(0.6, 0.7), rng.uniform(1.3, 1.4)
        profile = rad.RadialProfile.parse(refs.CUBIC, lo, hi)

        def gap():
            return rad.radial_gauss_residual(p, m), ps.gauss_residual(s, m)

        return [
            Op("pathspace.solve_gauss[cubic]", lambda: ps.solve_gauss(s, x0, eta),
               lambda out: first_error(
                   expect_close("X(0)", out.X[0], x0, 0.0),
                   expect_at_most("Gauss residual", refs.gauss_residual(refs.cubic_alpha, out.X, out.eta), TOL_GAUSS),
                   expect_at_most("drift of |X|", refs.norm_drift(out.X), TOL_CASIMIR)),
               {"x0": _floats(x0), "N": self.N_RADIAL_SOLVE}),
            Op("radial3d.radial_gauss_residual[cubic]", gap,
               lambda out: expect_at_most("|radial - generic residual|", abs(out[0] - out[1]), TOL_RESIDUAL_GAP),
               {"X0": _floats(X1), "e": _floats(e), "amp": amp, "N": N}),
            Op("radial3d.rescale[cubic]", lambda: rad.rescale(p, m),
               lambda out: expect_at_most(
                   "su(2) residual of the rescaled path",
                   refs.gauss_residual(refs.linear_alpha(refs.EPS3), out.X, out.eta), TOL_RESCALED),
               {"X0": _floats(X1), "e": _floats(e), "amp": amp, "N": N}),
            Op("radial3d.analyze[cubic]", lambda: rad.analyze(profile, self.ANALYZE_SAMPLES),
               lambda rep: check_cubic_analysis(rep, lo, hi, self.ANALYZE_SAMPLES),
               {"range": [lo, hi], "samples": self.ANALYZE_SAMPLES}),
        ]

    def _lie_ops(self, name, rng):
        spec = self.specs[name]
        xi = ball(rng, 2.0)
        # |log g| = 1 fixes the cost of scipy's expm per node
        g = refs.group_exp(name, sphere(rng, 1.0))
        comps = ball(rng, 1.0)
        N = self.N_LIE
        mh = ps.DiscretizedMorphism(n=3, X=np.ones((N + 1, 3)), eta=np.tile(comps, (N + 1, 1)))
        hol_ref = refs.group_exp(name, comps)
        alpha = refs.linear_alpha(refs.STRUCTURE_CONSTANTS[name])

        def round_trip():
            m = ld.from_groupoid(spec, xi, g, N=N)
            return m, ld.to_groupoid(spec, m)

        return [
            Op(f"lie_dual.from_groupoid+to_groupoid[{name}]", round_trip,
               lambda out: first_error(
                   expect_close("xi", out[1].xi, xi, TOL_ROUND_TRIP),
                   expect_close("g", out[1].g, g, TOL_ROUND_TRIP),
                   expect_at_most("Casimir drift", refs.casimir_drift(name, out[0].X), TOL_CASIMIR),
                   expect_at_most("Gauss residual", refs.gauss_residual(alpha, out[0].X, out[0].eta), TOL_GAUSS)),
               {"spec": name, "xi": _floats(xi), "g": _floats(g), "N": N}),
            Op(f"lie_dual.holonomy[{name}]", lambda: ld.holonomy(spec, mh),
               lambda got: expect_close("holonomy", got, hol_ref, TOL_HOLONOMY),
               {"spec": name, "eta": _floats(comps), "N": N}),
        ]

    def round(self, index):
        rng = self.rng(index)
        ops = self._qp_ops(rng) + self._radial_ops(rng)
        for name in self.specs:
            ops += self._lie_ops(name, rng)
        return ops


# ---------------------------------------------------------------------------
# cli-cold

_TOKEN = re.compile(r"\s+|(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?|[a-z]\w*|[-+*/^()]")
_MATH = {name: getattr(math, name) for name in ("sin", "cos", "exp", "log", "sqrt")}


def eval_printed(text, **values):
    """Evaluate an expression printed by the CLI with Python's own
    arithmetic ('^' is an integer power). Only numbers, operators and
    the known names are accepted."""
    tokens = _TOKEN.findall(text)
    names = {t for t in tokens if t[0].isalpha()}
    if "".join(tokens) != text or not names <= set(_MATH) | set(values):
        raise ValueError(f"unexpected input {text!r}")
    return eval(text.replace("^", "**"), {"__builtins__": {}}, dict(_MATH, **values))


class CLICold(Workload):
    """Fresh ``python -m psgroupoid.cli`` processes, one at a time."""

    name = "cli-cold"
    trace_rounds = 1
    in_child_processes = True
    GRID_SOLVE = 1000
    GRID_LIE = 400
    GRID_INVARIANTS = 1000
    N_HOLONOMY = 400
    ANALYZE_SAMPLES = 128

    def __init__(self, seed, out_dir):
        super().__init__(seed, out_dir)
        self.files = out_dir / "cli"
        self.files.mkdir(parents=True, exist_ok=True)
        self.tracer = None
        self.spans_file = self.files / "spans.json"

    def trace_children(self, tracer):
        """Run each invocation under cli_shim.py, which records the
        child's spans; ``after_op`` merges them into ``tracer``."""
        self.tracer = tracer

    def _op(self, kind, args, check, inputs, exit_code=0):
        def call():
            if self.tracer is None:
                cmd = [sys.executable, "-m", "psgroupoid.cli", *args]
            else:
                shim = Path(__file__).with_name("cli_shim.py")
                cmd = [sys.executable, str(shim), str(self.spans_file), *args]
            return subprocess.run(cmd, capture_output=True, text=True, timeout=120)

        def checked(proc):
            if proc.returncode != exit_code:
                return f"exit {proc.returncode}, expected {exit_code}: {proc.stderr.strip()[-300:]}"
            try:
                out = json.loads(proc.stdout)
            except json.JSONDecodeError as err:
                return f"stdout is not JSON: {err}"
            return check(out)

        return Op(kind, call, checked, dict(inputs, argv=args))

    def write_inputs(self, index, rng):
        """Morphism files made apart from the program: the closed-form
        straight-line representative of a quantum-plane point, and a
        constant-eta path for the su(2) holonomy."""
        x, pi = draw_path_qp_point(rng)
        X, eta = refs.qp_embed(x, pi, self.GRID_INVARIANTS)
        emb = self.files / f"embed-{index}.json"
        emb.write_text(json.dumps({"n": 2, "N": self.GRID_INVARIANTS,
                                   "X": X.tolist(), "etaU": eta.tolist()}))
        comps = ball(rng, 1.0)
        N = self.N_HOLONOMY
        hol = self.files / f"holonomy-{index}.json"
        hol.write_text(json.dumps({"n": 3, "N": N, "X": np.ones((N + 1, 3)).tolist(),
                                   "etaU": np.tile(comps, (N + 1, 1)).tolist()}))
        return (x, pi, emb), (comps, hol)

    def round(self, index):
        rng = self.rng(index)
        (xe, pe, emb), (comps, hol) = self.write_inputs(index, rng)
        ops = []
        # expr
        v = float(rng.uniform(-3, 3))
        ops.append(self._op("cli.expr.eval", ["expr", "eval", "--expr", "sin(x1)+2", f"--vars=x1={csv(v)}"],
                            lambda out: expect_rel("value", out["value"], math.sin(v) + 2.0, TOL_POINT),
                            {"x1": v}))
        a, b = round(float(rng.uniform(0.5, 3)), 3), round(float(rng.uniform(0.5, 3)), 3)
        pts = rng.uniform(-2, 2, (3, 2))

        def check_diff(out):
            got = [eval_printed(out["derivative"], x1=p[0], x2=p[1]) for p in pts]
            want = [2 * a * p[0] * p[1] + b * math.cos(b * p[0]) for p in pts]
            return expect_close("derivative values", got, want, TOL_POINT)

        ops.append(self._op("cli.expr.diff", ["expr", "diff", "--expr", f"{a}*x1^2*x2 + sin({b}*x1)", "--var", "x1"],
                            check_diff, {"a": a, "b": b}))
        # g2d on the quantum plane
        xq, pq = draw_qp_query(rng)
        want = refs.qp_member(xq, pq)
        ops.append(self._op("cli.g2d.member", ["g2d", "member", "--phi", "x1*x2", f"--x={csv(xq)}", f"--pi={csv(pq)}"],
                            lambda out: None if out["member"] == want else f"member {out['member']}, expected {want}",
                            {"x": _floats(xq), "pi": _floats(pq)}))
        x, pi = draw_qp_point(rng)
        xf = refs.qp_x_f(x, pi)
        pi2 = draw_second_factor(rng, refs.qp_member, xf)
        pt = [f"--x={csv(x)}", f"--pi={csv(pi)}"]
        inputs = {"x": _floats(x), "pi": _floats(pi)}
        ops.append(self._op("cli.g2d.mul", ["g2d", "mul", "--phi", "x1*x2", *pt, f"--x2={csv(xf)}", f"--pi2={csv(pi2)}"],
                            lambda out: first_error(expect_close("x", out["x"], x, TOL_POINT),
                                                    expect_close("pi", out["pi"], refs.qp_multiply(x, pi, pi2)[1], TOL_POINT)),
                            dict(inputs, pi2=_floats(pi2))))
        xi_ref, pi_ref = refs.qp_inverse(x, pi)
        ops.append(self._op("cli.g2d.inv", ["g2d", "inv", "--phi", "x1*x2", *pt],
                            lambda out: first_error(expect_close("x", out["x"], xi_ref, TOL_POINT),
                                                    expect_close("pi", out["pi"], pi_ref, TOL_POINT)),
                            inputs))
        ops.append(self._op("cli.g2d.h", ["g2d", "h", "--phi", "x1*x2", *pt],
                            lambda out: expect_rel("h", out["h"], refs.qp_h(x, pi), TOL_POINT), inputs))
        ops.append(self._op("cli.g2d.psi", ["g2d", "psi", "--phi", "x1*x2", *pt],
                            lambda out: expect_rel("psi", out["psi"], refs.qp_psi(x, pi), TOL_POINT), inputs))
        # lie on su(2), group elements as quaternions
        xi = ball(rng, 2.0)
        w1, w2 = ball(rng, 1.0), ball(rng, 1.0)
        q1, q2 = refs.su2_quat(w1), refs.su2_quat(w2)
        q12 = refs.quat_product(q1, q2)
        ops.append(self._op("cli.lie.mul", ["lie", "mul", "--spec", "su2", f"--xi={csv(xi)}", f"--g={csv(q1)}", f"--g2={csv(q2)}"],
                            lambda out: first_error(
                                expect_close("g", out["g"]["quaternion"], q12, TOL_POINT),
                                expect_close("right", out["right"], refs.quat_rotation(q12).T @ xi, TOL_POINT)),
                            {"xi": _floats(xi), "w": _floats(w1), "w2": _floats(w2)}))
        ops.append(self._op("cli.lie.roundtrip", ["lie", "roundtrip", "--spec", "su2", f"--xi={csv(xi)}", f"--g={csv(q1)}",
                                                  "--grid", str(self.GRID_LIE)],
                            lambda out: first_error(
                                expect_close("xi", out["xi"], xi, TOL_ROUND_TRIP),
                                expect_close("g", out["g"]["quaternion"], q1, TOL_ROUND_TRIP)),
                            {"xi": _floats(xi), "w": _floats(w1)}))
        ops.append(self._op("cli.lie.holonomy", ["lie", "holonomy", "--spec", "su2", "--in", str(hol)],
                            lambda out: expect_close("holonomy", out["holonomy"]["quaternion"],
                                                     refs.su2_quat(comps), TOL_HOLONOMY),
                            {"eta": _floats(comps)}))
        # radial
        lo, hi = rng.uniform(0.6, 0.7), rng.uniform(1.3, 1.4)
        ops.append(self._op("cli.radial.analyze", ["radial", "analyze", "--f", refs.CUBIC, f"--range={csv([lo, hi])}",
                                                   "--samples", str(self.ANALYZE_SAMPLES)],
                            lambda out: check_cubic_analysis(out, lo, hi, self.ANALYZE_SAMPLES),
                            {"range": [lo, hi]}))
        # flow on the quantum plane
        x0 = rng.uniform(0.5, 1.5, 2)
        c = _floats(rng.uniform(-0.3, 0.3, 4))
        eta_src = [f"{c[0]!r}*sin({PI_U}) + {c[1]!r}*sin(2*{PI_U})",
                   f"{c[2]!r}*sin({PI_U}) + {c[3]!r}*sin(2*{PI_U})"]

        def check_solve(out):
            m = out["morphism"]
            X, eta = np.array(m["X"]), np.array(m["etaU"])
            u = np.linspace(0.0, 1.0, self.GRID_SOLVE + 1)
            eta_ref = np.stack([c[0] * np.sin(math.pi * u) + c[1] * np.sin(2 * math.pi * u),
                                c[2] * np.sin(math.pi * u) + c[3] * np.sin(2 * math.pi * u)], axis=1)
            own = refs.gauss_residual(refs.qp_alpha, X, eta)
            return first_error(
                expect_close("X(0)", X[0], x0, 0.0),
                expect_close("eta", eta, eta_ref, TOL_POINT),
                expect_at_most("Gauss residual", own, TOL_GAUSS),
                expect_rel("reported residual", out["residual"], own, 1e-9))

        ops.append(self._op("cli.flow.solve", ["flow", "solve", "--structure", "phi2d:x1*x2", f"--x0={csv(x0)}",
                                               "--eta", ";".join(eta_src), "--grid", str(self.GRID_SOLVE)],
                            check_solve, {"x0": _floats(x0), "c": _floats(c)}))
        ops.append(self._op("cli.flow.invariants", ["flow", "invariants", "--structure", "phi2d:x1*x2", "--in", str(emb)],
                            lambda out: first_error(
                                None if out["passed"] else "passed is false",
                                expect_close("x", out["x"], xe, TOL_ROUND_TRIP),
                                expect_close("pi", out["pi"], pe, TOL_ROUND_TRIP)),
                            {"x": _floats(xe), "pi": _floats(pe)}))
        return ops

    def warm_up(self, ops):
        """One invocation, which also fills the bytecode cache."""
        ops[0].call()
        self.spans_file.unlink(missing_ok=True)

    def after_op(self, op_id):
        if self.tracer is not None and self.spans_file.exists():
            self.tracer.merge(json.loads(self.spans_file.read_text()), op_id)
            self.spans_file.unlink()


WORKLOADS = {cls.name: cls for cls in (G2DVerify, Pointwise, Paths, CLICold)}
