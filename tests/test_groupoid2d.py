import math

import numpy as np
import pytest

from psgroupoid import groupoid2d as g2
from psgroupoid import pathspace as ps

QP = g2.Phi2D.parse("x1*x2")  # the quantum-plane structure
BOX = g2.Domain2D(-10, 10, -10, 10)


def pt(x, pi):
    return g2.GroupoidPoint2D(np.asarray(x, float), np.asarray(pi, float))


# --- frozen pointwise oracles (worked out by hand from the definitions) --

def test_x_f_reference_value():
    # x = (1,1), pi = (0.5, 0.25), phi = 1:
    # x_f = (1 - 1*0.25, 1 + 1*0.5) = (0.75, 1.5)
    assert np.allclose(g2.x_f(QP, pt([1, 1], [0.5, 0.25])), [0.75, 1.5],
                       atol=1e-15)


def test_h_reference_value():
    # h = phi(x_f)/phi(x) = (0.75*1.5)/1 = 1.125
    assert math.isclose(g2.h_map(QP, pt([1, 1], [0.5, 0.25])), 1.125,
                        rel_tol=1e-15)


def test_h_quantum_plane_closed_form():
    # for phi = x1*x2: h = (1 - x2 pi2)(1 + x1 pi1)
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        h = g2.h_map(QP, pt(x, pi))
        closed = (1 - x[1] * pi[1]) * (1 + x[0] * pi[0])
        assert math.isclose(h, closed, rel_tol=1e-12, abs_tol=1e-12)


def test_psi_quantum_plane_is_pi1_pi2():
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-2, 2, 2)
        pi = rng.uniform(-2, 2, 2)
        val = g2.psi(QP, pt(x, pi))
        assert math.isclose(val, pi[0] * pi[1], rel_tol=1e-11, abs_tol=1e-12)


def test_psi_reference_value():
    # psi = (1 + pi1 d2 - pi2 d1 - h)/phi
    #     = (1 + 0.5 - 0.25 - 1.125)/1 = 0.125 = pi1*pi2
    assert math.isclose(g2.psi(QP, pt([1, 1], [0.5, 0.25])), 0.125,
                        rel_tol=1e-14)


def test_zero_locus_branch_of_h_and_psi():
    # phi = x2 vanishes at x2 = 0: h -> 1 + pi1, psi -> -pi2^2 * 0 ... use
    # the Taylor values there
    p = g2.Phi2D.parse("x2")
    g = pt([0.3, 0.0], [0.4, -0.7])
    assert math.isclose(g2.h_map(p, g), 1.0 + 0.4, rel_tol=1e-14)
    # hessian of x2 vanishes, so psi = 0 on the zero locus
    assert g2.psi(p, g) == 0.0
    # just off the locus the generic branch must agree to first order
    g_off = pt([0.3, 1e-7], [0.4, -0.7])
    assert abs(g2.h_map(p, g_off) - 1.4) < 1e-6


def test_multiply_reference_value():
    # ((1,1),(0.5,0.25)) . ((0.75,1.5),(0.1,0.2)), h = 1.125:
    # pi_out = (0.5 + 1.125*0.1, 0.25 + 1.125*0.2) = (0.6125, 0.475)
    prod = g2.multiply(QP, pt([1, 1], [0.5, 0.25]), pt([0.75, 1.5], [0.1, 0.2]))
    assert np.allclose(prod.x, [1, 1], atol=1e-15)
    assert np.allclose(prod.pi, [0.6125, 0.475], atol=1e-15)


def test_multiply_rejects_noncomposable():
    with pytest.raises(ValueError):
        g2.multiply(QP, pt([1, 1], [0.5, 0.25]), pt([2, 2], [0.1, 0.2]))


def test_inverse_reference_value():
    # inverse = (x_f, -pi/h) = ((0.75, 1.5), (-4/9, -2/9))
    gi = g2.inverse(QP, pt([1, 1], [0.5, 0.25]))
    assert np.allclose(gi.x, [0.75, 1.5], atol=1e-15)
    assert np.allclose(gi.pi, [-4.0 / 9.0, -2.0 / 9.0], atol=1e-15)


def test_membership_quantum_plane_inequalities():
    # the groupoid is cut out by x1 pi1 > -1 and x2 pi2 < 1
    assert g2.contains(QP, BOX, pt([1, 1], [0.5, 0.25]))
    assert not g2.contains(QP, BOX, pt([1, 1], [-2, 0]))     # x1 pi1 = -2
    assert not g2.contains(QP, BOX, pt([1, 1], [0, 1.5]))    # x2 pi2 = 1.5
    assert g2.contains(QP, BOX, pt([1, 1], [-0.99, 0.99]))
    # x1 pi1 = -1.63: h dips below 0 for t in (0.6122, 0.6131) only, between
    # two of 256 evenly spaced samples of the ray, and is positive at t = 1
    assert not g2.contains(QP, BOX, pt([-1.8280564724565642, -0.8964528730015027],
                                       [0.8935436327479551, -1.8194943096187295]))


def test_membership_requires_base_point_inside():
    assert not g2.contains(QP, BOX, pt([11, 0], [0, 0]))


@pytest.mark.parametrize("w", [1e-3, 2e-4, 1e-6])
def test_membership_thin_band(w):
    # phi < 0 only on the band 0.5 < x1 < 0.5 + w. From x = 0 the ray runs
    # along x1 up to phi(0) |pi2|, so (x, pi) is a member iff it stops
    # short of x1 = 0.5; a longer ray crosses the band
    p = g2.Phi2D.parse(f"(x1-0.5)*(x1-0.5-{w!r})")
    phi0 = 0.5 * (0.5 + w)
    rng = np.random.default_rng(0)
    wrong = sum(g2.contains(p, BOX, pt([0, 0], [0, pi2])) != (phi0 * -pi2 < 0.5)
                for pi2 in rng.uniform(-4, -1, 200))
    assert wrong == 0


def test_membership_undecided_is_not_member():
    # phi = 1 everywhere, but the natural enclosure of 1e7*(x1 - x1) stays
    # wider than 1 until pieces are far narrower than the piece budget allows
    p = g2.Phi2D.parse("1e7*(x1 - x1) + 1")
    assert not g2.contains(p, BOX, pt([0.5, 0.5], [1.0, -2.0]))
    assert g2.contains(g2.Phi2D.parse("1e3*(x1 - x1) + 1"), BOX,
                       pt([0.5, 0.5], [1.0, -2.0]))


def test_membership_where_phi_is_undefined_on_the_ray():
    # phi = log(x1): from x = (2, 1) with pi = (0, 3) the ray runs along x1
    # down to 2 - 3 log 2 < 0, inside the rectangle but outside x1 > 0
    p = g2.Phi2D.parse("log(x1)")
    assert not g2.contains(p, BOX, pt([2, 1], [0, 3]))
    assert not g2.contains(p, BOX, pt([-1, 1], [0, 0.5]))
    assert g2.contains(p, BOX, pt([2, 1], [0, 0.5]))  # stops at x1 = 1.65


def test_membership_on_the_zero_locus():
    # |phi(x)| < 1e-9: h = 1 + t pi1 along the ray for phi = x2
    p = g2.Phi2D.parse("x2")
    for x2 in (0.0, 5e-10, -5e-10):
        assert g2.contains(p, BOX, pt([0.3, x2], [0.4, -0.7]))       # h(1) = 1.4
        assert not g2.contains(p, BOX, pt([0.3, x2], [-1.5, 0.2]))  # h(1) = -0.5


def test_bivector_antisymmetric_and_field_entries():
    g = pt([1.2, -0.7], [0.3, 0.8])
    P = g2.bivector(QP, g)
    assert np.allclose(P, -P.T, atol=0)
    assert math.isclose(P[0, 1], QP(g.x), rel_tol=1e-15)
    assert math.isclose(P[2, 3], g2.psi(QP, g), rel_tol=1e-12)


def test_symplectic_form_inverts_bivector():
    g = pt([1.2, -0.7], [0.3, 0.8])
    W = g2.symplectic_form(QP, g)
    assert np.max(np.abs(W @ g2.bivector(QP, g) - np.eye(4))) < 1e-12


def test_printed_form_discrepancy_localized():
    # the transcribed closed-form 2-form disagrees with inv(P) only in
    # the entries involving dpi2 against the base coordinates, which is
    # consistent with a single misprinted differential
    g = pt([1.1, 0.9], [0.25, 0.4])
    diff = g2.printed_form_discrepancy(QP, g)
    # the entries not involving dpi2 agree exactly ...
    assert diff["dx1^dx2"] < 1e-12
    assert diff["dx1^dpi1"] < 1e-12
    assert diff["dx2^dpi1"] < 1e-12
    # ... while the dpi2 column carries the transcription defect
    assert diff["dpi1^dpi2"] > 1e-3
    assert diff["dx1^dpi2"] > 1e-3


def test_embed_is_constraint_solution_and_invariants_round_trip():
    s = QP.structure()
    g = pt([1, 1], [0.5, 0.25])
    m = g2.embed(QP, g, N=2000)
    assert ps.gauss_residual(s, m) < 1e-6
    back = g2.invariants(QP, m)
    assert np.max(np.abs(back.x - g.x)) < 1e-6
    assert np.max(np.abs(back.pi - g.pi)) < 1e-6


def test_embed_tapered_endpoints_vanish():
    g = pt([1, 1], [0.5, 0.25])
    m = g2.embed(QP, g, N=500, tapered=True)
    assert np.allclose(m.eta[0], 0.0) and np.allclose(m.eta[-1], 0.0)
    back = g2.invariants(QP, m, residual_tol=1e-3)
    assert np.max(np.abs(back.pi - g.pi)) < 1e-5


def test_embed_rejects_points_outside_groupoid():
    with pytest.raises(ValueError):
        g2.embed(QP, pt([1, 1], [-2, 0]), N=500)  # h crosses zero


def test_concatenate_maps_to_product():
    g = pt([1, 1], [0.5, 0.25])
    g2nd = pt(g2.x_f(QP, g), [0.1, 0.2])
    m1 = g2.embed(QP, g, N=2000, tapered=True)
    m2 = g2.embed(QP, g2nd, N=2000, tapered=True)
    glued = ps.concatenate(m1, m2)
    back = g2.invariants(QP, glued)
    prod = g2.multiply(QP, g, g2nd)
    assert np.max(np.abs(back.pi - prod.pi)) < 1e-5
    assert np.max(np.abs(back.x - prod.x)) < 1e-8


def test_reverse_maps_to_inverse():
    g = pt([1, 1], [0.5, 0.25])
    m = g2.embed(QP, g, N=2000)
    back = g2.invariants(QP, ps.reverse(m))
    gi = g2.inverse(QP, g)
    assert np.max(np.abs(back.x - gi.x)) < 1e-8
    assert np.max(np.abs(back.pi - gi.pi)) < 1e-6


def test_gauge_flow_fixes_invariants():
    s = QP.structure()
    g = pt([1, 1], [0.5, 0.25])
    m = g2.embed(QP, g, N=2000)
    beta = ps.GaugeField.parse(
        ["0.1*sin(3.141592653589793*u)*x2", "0.05*u*(1-u)*x1"], 2)
    flowed = ps.gauge_flow(s, m, beta, s_total=0.5)
    back = g2.invariants(QP, flowed)
    assert np.max(np.abs(back.x - g.x)) < 1e-8
    assert np.max(np.abs(back.pi - g.pi)) < 1e-6


def test_phi_x2_h_closed_form():
    # phi = x2: x_f = (x1 - x2 pi2, x2 + x2 pi1), h = (x2 + x2 pi1)/x2
    #         = 1 + pi1
    p = g2.Phi2D.parse("x2")
    rng = np.random.default_rng(2)
    for _ in range(25):
        x = rng.uniform(0.5, 2, 2)
        pi = rng.uniform(-0.9, 0.9, 2)
        assert math.isclose(g2.h_map(p, pt(x, pi)), 1.0 + pi[0],
                            rel_tol=1e-12)


@pytest.mark.parametrize("src", ["x1*x2", "x2", "sin(x1)+2", "0"])
def test_axiom_report_passes(src):
    p = g2.Phi2D.parse(src)
    report = g2.verify_axioms(p, BOX, samples=25, seed=11)
    failed = {k: v for k, v in report.items() if not v["passed"]}
    assert not failed, failed


def test_verify_axioms_deterministic():
    p = g2.Phi2D.parse("x1*x2")
    r1 = g2.verify_axioms(p, BOX, samples=10, seed=5)
    r2 = g2.verify_axioms(p, BOX, samples=10, seed=5)
    assert r1 == r2


def test_d_omega_where_h_is_small():
    # seed 43 samples a point with small h, where differencing omega = inv(P)
    # itself with a step of 1e-6 gave d omega = 1.39
    report = g2.verify_axioms(QP, BOX, samples=10, seed=43)
    assert report["d_omega"]["passed"], report["d_omega"]
