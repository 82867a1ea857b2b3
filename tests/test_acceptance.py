"""Acceptance suite: ten numbered criteria, each printing one PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every criterion is a property of the finite-dimensional discretization,
checked at a stated tolerance with seeded randomness.
"""

import math

import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import groupoid2d as g2
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import radial3d as rad
from psgroupoid.poisson import rot_invariant3
from scipy.linalg import expm

PI = math.pi
QP = g2.Phi2D.parse("x1*x2")
BOX = g2.Domain2D(-10, 10, -10, 10)
PHI_SOURCES = ["x1*x2", "x2", "sin(x1)+2", "0"]

_REPORTS = {}


def _report(src):
    """Full axiom report at 100 samples, computed once per structure."""
    if src not in _REPORTS:
        p = g2.Phi2D.parse(src)
        _REPORTS[src] = g2.verify_axioms(p, BOX, samples=100, seed=0)
    return _REPORTS[src]


def _check(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _qp_closed_form_member(x, pi):
    return x[0] * pi[0] > -1.0 and x[1] * pi[1] < 1.0


def test_criterion_01_quantum_plane_membership():
    rng = np.random.default_rng(101)
    agree = 0
    total = 1000
    for _ in range(total):
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        got = g2.contains(QP, BOX, g2.GroupoidPoint2D(x, pi))
        if got == _qp_closed_form_member(x, pi):
            agree += 1
    _check("criterion 1 (quantum-plane membership)", agree == total,
           f"{agree}/{total} agreements with the closed-form inequalities")


def test_criterion_02_quantum_plane_h_psi_closed_forms():
    rng = np.random.default_rng(102)
    worst = 0.0
    found = 0
    while found < 100:
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        if not _qp_closed_form_member(x, pi):
            continue
        # keep the reference values away from zero so the relative
        # error is well defined
        h_ref = (1 - x[1] * pi[1]) * (1 + x[0] * pi[0])
        psi_ref = pi[0] * pi[1]
        if abs(h_ref) < 1e-3 or abs(psi_ref) < 1e-3:
            continue
        found += 1
        g = g2.GroupoidPoint2D(x, pi)
        worst = max(worst,
                    abs(g2.h_map(QP, g) - h_ref) / abs(h_ref),
                    abs(g2.psi(QP, g) - psi_ref) / abs(psi_ref))
    _check("criterion 2 (h and psi closed forms)", worst <= 1e-13,
           f"max relative error {worst:.3e} over 100 points (tol 1e-13)")


ALGEBRAIC_AXIOMS = ["identity_left_right", "identity_elements", "inverse",
                    "associativity", "cocycle", "right_of_product"]


def test_criterion_03_algebraic_axioms():
    worst = 0.0
    ok = True
    for src in PHI_SOURCES:
        rep = _report(src)
        for name in ALGEBRAIC_AXIOMS:
            worst = max(worst, rep[name]["max_dev"])
            ok = ok and rep[name]["passed"]
    _check("criterion 3 (identity/inverse/associativity/cocycle)",
           ok and worst <= 1e-12,
           f"max deviation {worst:.3e} over {len(PHI_SOURCES)} structures "
           f"x 100 tuples (tol 1e-12)")


def test_criterion_04_symplectic_structure():
    devs = {}
    rng = np.random.default_rng(104)
    antisym = 0.0
    for src in PHI_SOURCES:
        rep = _report(src)
        for name in ["omega_inverse", "jacobi_P", "d_omega"]:
            devs[name] = max(devs.get(name, 0.0), rep[name]["max_dev"])
        p = g2.Phi2D.parse(src)
        for g in g2.sample_points(p, BOX, 20, rng):
            P = g2.bivector(p, g)
            antisym = max(antisym, float(np.max(np.abs(P + P.T))))
    ok = (devs["omega_inverse"] <= 1e-9 and antisym == 0.0
          and devs["jacobi_P"] <= 1e-12 and devs["d_omega"] <= 1e-9)
    _check("criterion 4 (omega P = I, antisymmetry, Jacobi, d omega)", ok,
           f"omega*P-I {devs['omega_inverse']:.3e} (tol 1e-9), "
           f"antisym {antisym:.1e}, Jacobi {devs['jacobi_P']:.3e} (tol 1e-12), "
           f"d omega {devs['d_omega']:.3e} (tol 1e-9)")


def test_criterion_05_source_target_inversion_pullback():
    devs = {}
    ok = True
    for src in PHI_SOURCES:
        rep = _report(src)
        for name in ["left_poisson", "right_anti_poisson",
                     "inversion_anti_poisson", "product_pullback"]:
            devs[name] = max(devs.get(name, 0.0), rep[name]["max_dev"])
            ok = ok and rep[name]["passed"]
    _check("criterion 5 (source/target Poisson, inversion, pullback)",
           ok and devs["product_pullback"] <= 1e-10,
           f"left {devs['left_poisson']:.3e} (tol 1e-9), "
           f"right {devs['right_anti_poisson']:.3e} (tol 1e-9), "
           f"inversion {devs['inversion_anti_poisson']:.3e} (tol 1e-6), "
           f"pullback {devs['product_pullback']:.3e} (tol 1e-10)")


def test_criterion_06_path_groupoid_consistency():
    rng = np.random.default_rng(106)
    # (a) invariants(embed(g)) = g at N = 2000
    round_err = 0.0
    for g in g2.sample_points(QP, BOX, 10, rng, pi_box=0.5):
        m = g2.embed(QP, g, N=2000)
        back = g2.invariants(QP, m)
        round_err = max(round_err,
                        float(np.max(np.abs(back.x - g.x))),
                        float(np.max(np.abs(back.pi - g.pi))))
    # (b) concatenation realizes the groupoid product
    ga = g2.GroupoidPoint2D(np.array([1.0, 1.0]), np.array([0.5, 0.25]))
    gb = g2.GroupoidPoint2D(g2.x_f(QP, ga), np.array([0.1, 0.2]))
    glued = ps.concatenate(g2.embed(QP, ga, N=2000, tapered=True),
                           g2.embed(QP, gb, N=2000, tapered=True))
    prod = g2.multiply(QP, ga, gb)
    back = g2.invariants(QP, glued)
    concat_err = max(float(np.max(np.abs(back.pi - prod.pi))),
                     float(np.max(np.abs(back.x - prod.x))))
    # (c) invariants are fixed by gauge flows
    s = QP.structure()
    m = g2.embed(QP, ga, N=2000)
    beta = ps.GaugeField.parse(
        ["0.1*sin(3.141592653589793*u)*x2", "0.05*u*(1-u)*x1"], 2)
    flowed = ps.gauge_flow(s, m, beta, s_total=0.5)
    back = g2.invariants(QP, flowed)
    gauge_err = max(float(np.max(np.abs(back.x - ga.x))),
                    float(np.max(np.abs(back.pi - ga.pi))))
    ok = round_err <= 1e-6 and concat_err <= 1e-5 and gauge_err <= 1e-6
    _check("criterion 6 (path/groupoid consistency)", ok,
           f"round trip {round_err:.3e} (tol 1e-6), "
           f"concat vs product {concat_err:.3e} (tol 1e-5), "
           f"gauge invariance {gauge_err:.3e} (tol 1e-6)")


def test_criterion_07_moment_map():
    s = QP.structure()
    rng = np.random.default_rng(107)
    N = 1000
    u = np.linspace(0, 1, N + 1)
    eta = np.zeros((N + 1, 2))
    for k in range(1, 4):
        eta += 0.4 / k * np.outer(np.sin(PI * k * u), rng.standard_normal(2))
    m = ps.solve_gauss(s, [1.0, 1.0], eta)
    beta = ps.GaugeField.parse(
        ["0.2*u*(1-u)*x2", "0.3*sin(3.141592653589793*u)"], 2)
    on_shell = abs(ps.hamiltonian(s, m, beta))
    # off-shell base point for the differential check
    X_off = np.stack([1.0 + 0.3 * np.sin(PI * u), 1.0 + 0.2 * u], axis=1)
    m_off = ps.DiscretizedMorphism(n=2, X=X_off, eta=eta)
    dh_err = ps.hamiltonian_check(s, m_off, beta)
    gamma = ps.GaugeField.parse(
        ["0.3*u*(1-u)*x1", "0.2*sin(3.141592653589793*u)*x1*x2"], 2)
    equiv = ps.equivariance_defect(s, m, beta, gamma)
    ok = on_shell <= 1e-6 and dh_err <= 1e-6 and equiv <= 2e-8
    _check("criterion 7 (moment map)", ok,
           f"on-shell H {on_shell:.3e} (tol 1e-6), "
           f"dH vs pairing {dh_err:.3e} (tol 1e-6, 36 basis tangents), "
           f"equivariance {equiv:.3e} (tol 2e-8)")


def test_criterion_08_su2_dual():
    su2 = ld.builtin_spec("su2")
    rng = np.random.default_rng(108)
    round_err = 0.0
    casimir = 0.0
    for _ in range(50):
        xi = rng.standard_normal(3)
        # draws near the identity, by choice: the group log is defined on
        # the whole group, the antipode included (tests/test_lie_dual.py)
        g = su2.project(expm(su2.rho(0.5 * rng.standard_normal(3))))
        m = ld.from_groupoid(su2, xi, g, N=2000)
        back = ld.to_groupoid(su2, m)
        round_err = max(round_err,
                        float(np.max(np.abs(back.xi - xi))),
                        float(np.max(np.abs(back.g - g))))
        radii = np.linalg.norm(m.X, axis=1)
        casimir = max(casimir, float(np.max(radii) - np.min(radii)))
    # concatenation realizes the group product
    xi = rng.standard_normal(3)
    g1 = su2.project(expm(su2.rho(0.5 * rng.standard_normal(3))))
    g2_ = su2.project(expm(su2.rho(0.5 * rng.standard_normal(3))))
    m1 = ld.from_groupoid(su2, xi, g1, N=1000, tapered=True)
    xi2 = ld.right_lie(su2, ld.LieGroupoidPoint(xi, g1))
    m2 = ld.from_groupoid(su2, xi2, g2_, N=1000, tapered=True)
    glued = ps.concatenate(m1, m2)
    back = ld.to_groupoid(su2, glued, residual_tol=1e-3)
    concat_err = float(np.max(np.abs(back.g - su2.project(g1 @ g2_))))
    # constant-eta holonomy against the matrix exponential
    comps = np.array([0.3, -0.2, 0.5])
    Nh = 800
    mh = ps.DiscretizedMorphism(n=3, X=np.ones((Nh + 1, 3)),
                                eta=np.tile(comps, (Nh + 1, 1)))
    hol_err = float(np.max(np.abs(ld.holonomy(su2, mh)
                                  - expm(su2.rho(comps)))))
    ok = (round_err <= 1e-6 and casimir <= 1e-8 and concat_err <= 1e-5
          and hol_err <= 1e-8)
    _check("criterion 8 (su(2) dual)", ok,
           f"round trip {round_err:.3e} (tol 1e-6, 50 draws), "
           f"Casimir drift {casimir:.3e} (tol 1e-8), "
           f"concat vs product {concat_err:.3e} (tol 1e-5), "
           f"holonomy vs expm {hol_err:.3e} (tol 1e-8)")


def test_criterion_09_radial_classification():
    cubic = "R/(1+(R-1)^3)"
    p_one = rad.RadialProfile.parse("1", 0.5, 2.0)
    p_lin = rad.RadialProfile.parse("R", 0.5, 2.0)
    p_cub = rad.RadialProfile.parse(cubic, 0.6, 1.4)

    rep1 = rad.analyze(p_one, 256)
    repR = rad.analyze(p_lin, 256)
    repC = rad.analyze(p_cub, 512)
    verdicts_ok = (
        rep1["verdict"] == rad.VERDICT_SMOOTH_REGULAR
        and all(s["fiber"] == rad.FIBER_SU2 for s in rep1["samples"])
        and repR["verdict"] == rad.VERDICT_SMOOTH_CONSTANT
        and all(s["fiber"] == rad.FIBER_S2XR for s in repR["samples"])
        and repC["verdict"] == rad.VERDICT_SINGULAR
        and len(repC["critical_points"]) == 1)
    r_crit = repC["critical_points"][0]["R"] if repC["critical_points"] else 0.0
    crit_ok = abs(r_crit - 1.0) <= 1e-6
    # the fiber flips exactly at the critical radius
    flip_ok = (rad.classify_fiber(p_cub, r_crit) == rad.FIBER_S2XR
               and rad.classify_fiber(p_cub, r_crit - 1e-3) == rad.FIBER_SU2
               and rad.classify_fiber(p_cub, r_crit + 1e-3) == rad.FIBER_SU2)
    # the two C formulas agree
    c_err = 0.0
    for q, lo, hi in ((p_one, 0.5, 2.0), (p_lin, 0.5, 2.0),
                      (p_cub, 0.6, 1.4)):
        for R in np.linspace(lo, hi, 101):
            # C = R f'/f against C = 1 - f A' / (4 pi)
            c_from_area = 1.0 - q.f_at(R) * ex.evaluate(q.darea, {"R": R}) / rad.FOUR_PI
            c_err = max(c_err, abs(rad.c_invariant(q, R) - c_from_area))
    # residuals: radial vs generic, and the rescaled su(2) system
    s_cub = rot_invariant3(ex.parse(cubic, ["R"]))
    rng = np.random.default_rng(109)
    N = 3000
    u = np.linspace(0, 1, N + 1)
    eta = np.zeros((N + 1, 3))
    for k in range(1, 4):
        eta += 0.2 / k * np.outer(np.sin(PI * k * u), rng.standard_normal(3))
    m = ps.solve_gauss(s_cub, [0.7, 0.4, 0.5], eta)
    resid_gap = abs(rad.radial_gauss_residual(p_cub, m)
                    - ps.gauss_residual(s_cub, m))
    su2_resid = ps.gauss_residual(ld.kk_structure(ld.builtin_spec("su2")),
                                  rad.rescale(p_cub, m))
    ok = (verdicts_ok and crit_ok and flip_ok and c_err <= 1e-8
          and resid_gap <= 1e-10 and su2_resid <= 1e-6)
    _check("criterion 9 (radial classification)", ok,
           f"verdicts {'ok' if verdicts_ok else 'WRONG'}, critical point at "
           f"{r_crit:.9f} (tol 1e-6), fiber flip "
           f"{'ok' if flip_ok else 'WRONG'}, C formulas {c_err:.3e} "
           f"(tol 1e-8), residual gap {resid_gap:.3e} (tol 1e-10), "
           f"rescaled su(2) residual {su2_resid:.3e} (tol 1e-6)")


def test_criterion_10_scope_statement():
    # The continuum statements about the infinite-dimensional phase space
    # are not directly reproducible; acceptance is defined by the
    # finite-dimensional property suites above, at their stated tolerances.
    here = globals()
    criteria = [name for name in here if name.startswith("test_criterion_")]
    ok = len(criteria) == 10
    _check("criterion 10 (scope)", ok,
           "continuum claims are certified only through the discretized "
           f"property suites; {len(criteria)} criteria present")
