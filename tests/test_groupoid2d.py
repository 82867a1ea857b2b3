import hashlib
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


def test_multiply_rejects_a_nan_left_end():
    # a NaN gap used to pass the composability check, one point or a stack
    g = pt([1, 1], [0.5, 0.25])
    with pytest.raises(ValueError, match="not composable"):
        g2.multiply(QP, g, pt([math.nan, math.nan], [0.1, 0.2]))
    stack = g2._stack([g, g])
    x2 = np.column_stack([g2.x_f(QP, g), [math.nan, math.nan]])
    with pytest.raises(ValueError, match="not composable"):
        g2.multiply(QP, stack, g2.GroupoidPoint2D(x2, np.full((2, 2), 0.1)))


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


def test_members_close_a_ray_over_its_piece_budget(monkeypatch):
    # as contains does, without deciding the ray again one point at a time
    monkeypatch.setattr(g2, "contains", None)
    p = g2.Phi2D.parse("1e7*(x1 - x1) + 1")
    assert g2._members(p, BOX, np.array([[0.5], [0.5]]), np.array([[1.0], [-2.0]])).tolist() == [False]


@pytest.mark.xfail(strict=True, reason="the natural enclosure of 1e5*(x1 - x1) certifies "
                   "only pieces under 2^-17 of the ray, more than RAY_MAX_PIECES of them; "
                   "a mean-value enclosure would certify phi = 1")
def test_membership_despite_a_dependency_problem():
    p = g2.Phi2D.parse("1e5*(x1 - x1) + 1")
    assert g2.contains(p, BOX, pt([0.5, 0.5], [1.0, -2.0]))


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


def printed_form_matrix(p, g):
    """A transcribed closed-form expression for the 2-form, kept only
    for the term-by-term cross-check against inv(P). One of the two
    dx2^dpi2 coefficients is suspected to be a typo for dx1^dpi2."""
    phi = p(g.x)
    d1, d2 = p.grad(g.x)
    h = g2.h_map(p, g)
    ps_ = g2.psi(p, g)
    pi1, pi2 = g.pi
    W = np.zeros((4, 4))
    W[0, 1] = ps_
    W[0, 2] = 1.0 - pi2 * d1
    W[1, 3] = pi1 * d1 + (1.0 + pi1 * d2)
    W[1, 2] = -pi2 * d2
    W[2, 3] = -phi
    return (W - W.T) / h


def printed_form_discrepancy(p, g):
    """Entrywise |inv(P) - printed form|, keyed by coordinate pair."""
    names = ("x1", "x2", "pi1", "pi2")
    diff = g2.symplectic_form(p, g) - printed_form_matrix(p, g)
    out = {}
    for a in range(4):
        for b in range(a + 1, 4):
            out[f"d{names[a]}^d{names[b]}"] = float(abs(diff[a, b]))
    return out


def test_printed_form_discrepancy_localized():
    # the transcribed closed-form 2-form disagrees with inv(P) only in
    # the entries involving dpi2 against the base coordinates, which is
    # consistent with a single misprinted differential
    g = pt([1.1, 0.9], [0.25, 0.4])
    diff = printed_form_discrepancy(QP, g)
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


def test_structure_is_built_once(monkeypatch):
    # invariants used to build, and differentiate, a structure per path
    p = g2.Phi2D.parse("sin(x1)*x2 + 2")
    m = g2.embed(p, pt([0.3, 0.7], [0.2, -0.1]))
    calls = []
    original = g2.ex.differentiate
    monkeypatch.setattr(g2.ex, "differentiate", lambda *a: calls.append(a) or original(*a))
    g2.invariants(p, m)
    assert calls == [] and p.structure() is p.structure()


# the seven phi of the target check; at seed 7 the worst |x_f(g) - X(1)|
# reads 7.0e-8 for x1*x2, 2.8e-7 for sin(x1)+2 and 0 for phi = 0
TARGET_PHI = ["x1*x2", "x2", "sin(x1)+2", "x1^3 - x2", "(x1-0.5)*(x1-0.5-0.001)",
              "exp(x1) - 2", "0"]


def _solved_paths(p):
    """Three solutions on 1001 nodes from seed 7, X(0) in [-1, 1]^2."""
    rng = np.random.default_rng(7)
    u = np.linspace(0.0, 1.0, 1001)
    for _ in range(3):
        x0 = rng.uniform(-1.0, 1.0, 2)
        a, b = rng.uniform(-0.5, 0.5, (2, 2))
        yield ps.solve_gauss(p.structure(), x0, np.outer(np.sin(np.pi * u), a)
                             + np.outer(u * (1.0 - u), b))


@pytest.mark.parametrize("src", TARGET_PHI)
def test_solved_path_ends_at_the_closed_form_target(src):
    # two routes to the target of a path: its own endpoint X(1), from
    # solve_gauss, and x_f of the groupoid point invariants recovers
    p = g2.Phi2D.parse(src)
    for m in _solved_paths(p):
        g = g2.invariants(p, m)
        assert np.max(np.abs(g2.x_f(p, g) - m.X[-1])) <= 1e-6
        assert g2.contains(p, BOX, g)


# criterion 6's gauge field
CRITERION_6_BETA = ps.GaugeField.parse(["0.1*sin(3.141592653589793*u)*x2", "0.05*u*(1-u)*x1"], 2)


@pytest.mark.parametrize("src", TARGET_PHI)
def test_gauge_flow_keeps_the_groupoid_point(src):
    # two routes to the groupoid point of a path: the invariants of the
    # solution, and of its image under a gauge flow; at seed 7 the worst
    # move reads 5.6e-9 for x1*x2, 2.05e-8 for the close roots and 1.7e-16
    # for phi = 0
    p = g2.Phi2D.parse(src)
    for m in _solved_paths(p):
        g = g2.invariants(p, m)
        moved = g2.invariants(p, ps.gauge_flow(p.structure(), m, CRITERION_6_BETA, s_total=0.5))
        assert max(np.max(np.abs(moved.x - g.x)), np.max(np.abs(moved.pi - g.pi))) <= 5e-8


@pytest.mark.parametrize("src", TARGET_PHI)
def test_glued_solutions_map_to_the_product(src):
    # two routes to a product: the invariants of two glued solutions, and
    # multiply of their invariants; at seed 7 the worst |pi| gap reads
    # 7.4e-10 for x1*x2, 7.8e-9 for the close roots and 4.8e-16 for phi = 0
    p = g2.Phi2D.parse(src)
    rng = np.random.default_rng(7)
    u = np.linspace(0.0, 1.0, 1001)
    for _ in range(3):
        start = rng.uniform(-1.0, 1.0, 2)
        m = []
        for _ in range(2):  # eta vanishes at both ends, so the paths glue
            a, b = rng.uniform(-0.5, 0.5, (2, 2))
            eta = (30.0 * u ** 2 * (1.0 - u) ** 2)[:, None] * (a + np.outer(u, b))
            m.append(ps.solve_gauss(p.structure(), start, eta))
            start = m[-1].X[-1]
        glued = g2.invariants(p, ps.concatenate(*m))
        product = g2.multiply(p, *(g2.invariants(p, path) for path in m), tol=1e-6)
        assert np.max(np.abs(glued.x - product.x)) <= 1e-7
        assert np.max(np.abs(glued.pi - product.pi)) <= 1e-7
        assert g2.contains(p, BOX, product)


def test_embed_tapered_endpoints_vanish():
    g = pt([1, 1], [0.5, 0.25])
    m = g2.embed(QP, g, N=500, tapered=True)
    assert np.allclose(m.eta[0], 0.0) and np.allclose(m.eta[-1], 0.0)
    back = g2.invariants(QP, m, residual_tol=1e-3)
    assert np.max(np.abs(back.pi - g.pi)) < 1e-5


def test_embed_rejects_points_outside_groupoid():
    with pytest.raises(ValueError):
        g2.embed(QP, pt([1, 1], [-2, 0]), N=500)  # h crosses zero


@pytest.mark.parametrize("N", [-5, 0, 1])
def test_embed_refuses_fewer_than_two_intervals(N):
    with pytest.raises(ValueError, match=f"^embed needs N >= 2 intervals, got N = {N}$"):
        g2.embed(QP, pt([1, 1], [0.5, 0.25]), N=N)


_STACK = pt([[1.0, 0.5], [1.0, 0.5]], [[0.5, 0.1], [0.25, 0.2]])  # two points


def test_contains_refuses_a_stack():
    with pytest.raises(ValueError, match=r"^contains takes one point, x and pi of shape \(2,\), "
                                         r"got \(2, 2\) and \(2, 2\)$"):
        g2.contains(QP, BOX, _STACK)


def test_embed_refuses_a_stack():
    with pytest.raises(ValueError, match=r"^embed takes one point, x and pi of shape \(2,\), "
                                         r"got \(2, 2\) and \(2, 2\)$"):
        g2.embed(QP, _STACK, N=10)


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
    assert report["inverse"]["passed"], report["inverse"]


# --- one division-free formula for h and psi, exact derivatives ----------

def test_h_just_below_the_old_branch_switch():
    # |phi| = 5e-10: closed form (1 - x2 pi2)(1 + x1 pi1) = 0.5 + 1.25e-10
    h = g2.h_map(QP, pt([5e-10, 1.0], [0.5, 0.5]))
    assert math.isclose(h, 0.5 + 1.25e-10, rel_tol=1e-13)


PSI_PROBE = ((6.0170770435519216e-05, 0.210501258325833),
             (0.643640542576271, -1.8210066516286916))


def test_psi_is_pi1_pi2_across_the_zero_locus():
    pi = (0.643640542576271, -1.8210066516286916)
    cases = [((a, 1.0), pi) for a in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3)]
    cases += [((1.0, -a), pi) for a in (1e-11, 1e-9, 1e-7, 1e-5, 1e-3)]
    for x, p_ in cases + [PSI_PROBE]:
        assert math.isclose(g2.psi(QP, pt(x, p_)), p_[0] * p_[1], rel_tol=1e-13), x


def _mp_sin_reference(c, x, pi):
    """h, psi and grad psi of phi = sin(x1) + c by 50-digit mpmath
    quadrature of h = 1 + int grad phi(y) . v and psi = -int (1-s) v^T
    Hess phi(y) v, y(s) = x + s phi(x) v, v = (-pi2, pi1); grad psi by
    mpmath's differentiation of that quadrature."""
    mp = pytest.importorskip("mpmath").mp

    def h_psi(x1, x2, p1, p2):
        phi = mp.sin(x1) + c
        y1 = lambda s: x1 - s * phi * p2  # noqa: E731
        h = 1 + mp.quad(lambda s: -p2 * mp.cos(y1(s)), [0, 1])
        psi = mp.quad(lambda s: (1 - s) * p2 ** 2 * mp.sin(y1(s)), [0, 1])
        return h, psi

    with mp.workdps(50):
        z = [mp.mpf(float(v)) for v in (*x, *pi)]
        h, psi = h_psi(*z)
        grad = [float(mp.diff(lambda t, k=k: h_psi(
            *[v + t if j == k else v for j, v in enumerate(z)])[1], 0)) for k in range(4)]
        return float(h), float(psi), np.array(grad)


@pytest.mark.parametrize("c, x, pi", [
    (2.0, (0.3, -1.2), (0.4, -0.9)),
    (2.0, (7.1, 2.0), (-0.8, 0.95)),
    (2.0, (-9.5, 0.0), (1.0, 1.0)),
    (0.0, (1e-12, 0.5), (0.3, 0.8)),
    (0.0, (-3e-10, 0.5), (0.3, 0.8)),
    (0.0, (2e-7, 0.5), (-0.6, -0.8)),
    (0.0, (1e-4, 0.5), (0.3, 0.8)),
])
def test_h_psi_and_grad_psi_match_mpmath(c, x, pi):
    p = g2.Phi2D.parse("sin(x1)" if c == 0.0 else f"sin(x1)+{c!r}")
    g = pt(x, pi)
    h, psi, grad = _mp_sin_reference(c, x, pi)
    assert math.isclose(g2.h_map(p, g), h, rel_tol=1e-13)
    assert math.isclose(g2.psi(p, g), psi, rel_tol=1e-13)
    assert np.max(np.abs(g2._psi_gradient(p, g) - grad)) <= 1e-13 * np.max(np.abs(grad))


def test_steep_phi_raises_instead_of_an_unconverged_value():
    p = g2.Phi2D.parse("sin(1e4*x1)+2")
    g = pt([0.3, 0.2], [0.5, 1.0])
    for f in (g2.h_map, g2.psi):
        with pytest.raises(RuntimeError, match="not converged"):
            f(p, g)


@pytest.mark.parametrize("n", [2, 3, 8, 64, 1024])
def test_gauss_legendre_rule_is_exact_for_degree_2n_minus_1(n):
    s, w = np.array(g2._gauss_legendre(n)).T
    for k in (0, 1, n, 2 * n - 1):
        assert math.isclose(np.dot(s ** k, w), 1.0 / (k + 1), rel_tol=1e-12), k


@pytest.mark.parametrize("src, nodes", [
    ("0", 1), ("x2", 1), ("x1*x2", 1), ("x1^3*x2/2 - 4", 2), ("(x1 + x2)^9", 5),
    ("sin(x1)+2", None), ("1/x1", None), ("exp(2)*x1^2", 1),
])
def test_rule_nodes_follow_the_polynomial_degree(src, nodes):
    assert g2.Phi2D.parse(src).nodes == nodes


def test_polynomial_rule_is_exact_for_a_quartic():
    # phi = x1^4 + x2^3 x1: two nodes integrate h exactly; closed form
    # h = phi(x_f) / phi(x)
    p = g2.Phi2D.parse("x1^4 + x2^3*x1")
    g = pt([0.7, -1.3], [0.4, 0.25])
    xf = g2.x_f(p, g)
    assert math.isclose(g2.h_map(p, g), p(xf) / p(g.x), rel_tol=1e-13)


@pytest.mark.parametrize("src", ["x2", "0"])
def test_partials_take_one_expression_call_each(src, monkeypatch):
    p = g2.Phi2D.parse(src)
    calls = []
    original = g2.ex.evaluate
    monkeypatch.setattr(g2.ex, "evaluate", lambda *a: calls.append(a) or original(*a))
    x = np.array([0.3, -0.4])
    point = {"x1": 0.3, "x2": -0.4, "v1": 0.5, "v2": 0.7}
    for call, shape in [(lambda: p.grad(x), (2,)), (lambda: p.hessian(x), (2, 2)),
                        (lambda: p.dalong(1, point), (4,)), (lambda: p.dalong(2, point), (4,)),
                        (lambda: p.grad((np.zeros(5), np.ones(5))), (2, 5))]:
        calls.clear()
        assert np.shape(call()) == shape
        assert len(calls) == 1


def test_grad_and_hessian_are_arrays_of_the_point_shape():
    p = g2.Phi2D.parse("x1^3 + x2")
    assert np.array_equal(p.grad((2.0, 1.0)), [12.0, 1.0])
    assert np.array_equal(p.hessian((2.0, 1.0)), [[12.0, 0.0], [0.0, 0.0]])
    x = (np.array([1.0, 2.0, 3.0]), 0.5)
    assert np.array_equal(p.grad(x), [[3.0, 12.0, 27.0], [1.0, 1.0, 1.0]])
    assert p.hessian(x).shape == (2, 2, 3)
    assert np.array_equal(p.hessian((2.0, 1.0)) @ [1.0, 1.0], [12.0, 0.0])


@pytest.mark.parametrize("src, x, pi, counts", [
    # (evaluate calls, of them on arrays, evaluate_interval calls) of h_map,
    # psi, multiply, inverse, contains: the probe of x1*x2 needs two cuts,
    # sin(x1)+2 is decided on the whole segment
    ("x1*x2", [-1.8280564724565642, -0.8964528730015027], [0.8935436327479551, -1.8194943096187295],
     [(2, 0, 0), (2, 0, 0), (2, 0, 0), (4, 0, 0), (5, 3, 3)]),
    ("sin(x1)+2", [0.3, -1.2], [0.4, -0.9], [(25, 0, 0), (25, 0, 0), (25, 0, 0), (4, 0, 0), (2, 0, 1)]),
])
def test_one_point_calls_stay_on_numbers(src, x, pi, counts, monkeypatch):
    # the helpers take stacks too; one point keeps its path on floats, whose
    # only array calls are the cuts of contains
    calls, intervals, original, interval = [], [], g2.ex.evaluate, g2.ex.evaluate_interval
    monkeypatch.setattr(g2.ex, "evaluate", lambda e, point: calls.append(
        any(isinstance(v, np.ndarray) for v in point.values())) or original(e, point))
    monkeypatch.setattr(g2.ex, "evaluate_interval", lambda e, box: intervals.append(box) or interval(e, box))
    p = g2.Phi2D.parse(src)  # after the patch, as Phi2D binds ex.evaluate
    g = pt(x, pi)
    g2nd = pt(g2.x_f(p, g), [0.1, 0.2])
    for call, want in zip([lambda: g2.h_map(p, g), lambda: g2.psi(p, g), lambda: g2.multiply(p, g, g2nd),
                           lambda: g2.inverse(p, g), lambda: g2.contains(p, BOX, g)], counts):
        calls.clear()
        intervals.clear()
        call()
        assert (len(calls), sum(calls), len(intervals)) == want


@pytest.mark.parametrize("src", ["x1*x2", "sin(x1)+2", "x1 - 1", "exp(x1/3)*x2 + log(x2*x2 + 1)"])
def test_a_stack_gives_each_point_the_bits_it_gets_alone(src):
    # sin(x1)+2 takes 16 or 32 nodes by point; at x1 = 1 + 2^-40, x1 - 1
    # takes the integral h in inverse, the other points the quotient
    p = g2.Phi2D.parse(src)
    points = g2.sample_points(p, g2.Domain2D(-2, 2, -2, 2), 12, np.random.default_rng(1))
    points.append(pt([1.0 + 2.0 ** -40, 0.0], [0.2, 0.3]))
    stack = g2._stack(points)
    pairs = [g2.h_map, g2.psi, g2.x_f, g2._h_gradient, g2._psi_gradient,
             lambda p, g: g2.inverse(p, g).pi,
             lambda p, g: g2.multiply(p, g, g2.GroupoidPoint2D(g2.x_f(p, g), g.pi[::-1])).pi]
    matrices = [g2.bivector, g2.symplectic_form, g2._x_f_jacobian, g2._bivector_gradient]
    for f, many in [(f, np.moveaxis(f(p, stack), -1, 0)) for f in pairs] + [(f, f(p, stack)) for f in matrices]:
        assert many.tobytes() == np.array([f(p, g) for g in points]).tobytes()


def test_sampling_draw_order_is_pinned():
    g = g2.sample_points(QP, BOX, 1, np.random.default_rng(7))[0]
    assert list(g.x) == [-4.902608246917508, -1.0984738823470686]
    assert list(g.pi) == [0.009096517915906599, 0.10699470414898493]
    a, b = g2.sample_composable_pairs(QP, BOX, 1, np.random.default_rng(7))[0]
    assert list(a.x) == [-0.675879493494218, 8.343355463857044]
    assert list(a.pi) == [0.2584525089820209, 0.028235293199027733]
    assert list(b.x) == [-0.516657770722767, 6.885915180002002]
    assert list(b.pi) == [-0.006253129212991482, -0.5049701559453383]


@pytest.mark.parametrize("sampler", [g2.sample_points, g2.sample_composable_pairs])
def test_sampling_refuses_a_negative_pi_box(sampler):
    with pytest.raises(ValueError, match=r"^pi_box must be at least 0, got -1$"):
        sampler(QP, BOX, 1, np.random.default_rng(7), pi_box=-1.0)


@pytest.mark.parametrize("sampler", [g2.sample_points, g2.sample_composable_pairs])
def test_sampling_no_samples_draws_nothing(sampler):
    rng = np.random.default_rng(7)
    assert sampler(QP, BOX, 0, rng) == []
    assert rng.random() == np.random.default_rng(7).random()


def test_sampling_in_a_pi_box_of_size_zero_draws_units():
    points = g2.sample_points(QP, BOX, 3, np.random.default_rng(7), pi_box=0.0)
    assert all(list(g.pi) == [0.0, 0.0] for g in points)


def test_verify_axioms_counts_the_checks_it_ran():
    report = g2.verify_axioms(QP, BOX, samples=100, seed=0)
    counts = {name: entry["count"] for name, entry in report.items()}
    assert counts.pop("associativity") == 59
    assert counts.pop("product_pullback") == 50
    assert set(counts.values()) == {100}


def _candidate(p, d, rng, pi_box, x=None):
    """One candidate drawn as a try draws it, one rng.uniform per value,
    and whether contains takes it."""
    if x is None:
        x = np.array([rng.uniform(d.xmin, d.xmax), rng.uniform(d.ymin, d.ymax)])
    g = pt(x, rng.uniform(-pi_box, pi_box, size=2))
    return g, g2.contains(p, d, g)


def _one_at_a_time(p, d, count, rng, pairs, pi_box=1.0, max_tries=g2.SAMPLE_MAX_TRIES):
    """The samplers' rejection loop one try at a time: the samples, None if
    max_tries ran out first, and every candidate drawn with its answer."""
    out, drawn, tries = [], [], 0
    while len(out) < count and tries < max_tries:
        tries += 1
        drawn.append(_candidate(p, d, rng, pi_box))
        g, member = drawn[-1]
        if member and pairs:
            drawn.append(_candidate(p, d, rng, pi_box, g2.x_f(p, g)))
            g, member = (g, drawn[-1][0]), drawn[-1][1]
        if member:
            out.append(g)
    return (out if len(out) == count else None), drawn


def _bits(samples):
    return [(g.x.tobytes(), g.pi.tobytes()) for s in samples for g in (s if isinstance(s, tuple) else (s,))]


def test_verify_axioms_draws_its_samples_in_a_pinned_order():
    # one try at a time: the points, the pairs, then one third factor per
    # pair in pair order; the checks draw nothing
    ref = np.random.default_rng(5)
    points, drawn = _one_at_a_time(QP, BOX, 4, ref, pairs=False)
    states = [ref.bit_generator.state]
    pairs, more = _one_at_a_time(QP, BOX, 4, ref, pairs=True)
    states.append(ref.bit_generator.state)
    drawn += more + [_candidate(QP, BOX, ref, 1.0, g2.x_f(QP, b)) for _, b in pairs]
    members = [g for g, member in drawn if member]
    assert (len(drawn), len(members)) == (50, 17)
    assert math.fsum(v for g in members for v in (*g.x, *g.pi)) == 7.9662952139788725
    assert [list(g.pi) if member else None for g, member in drawn[-4:]] == [
        [0.23041399782101113, -0.5037455698942837], None, None, None]
    # the block samplers give every sample, and leave the generator where those tries do
    rng = np.random.default_rng(5)
    for sampler, want, state in zip([g2.sample_points, g2.sample_composable_pairs], [points, pairs], states):
        assert _bits(sampler(QP, BOX, 4, rng)) == _bits(want)
        assert rng.bit_generator.state == state
    report = g2.verify_axioms(QP, BOX, samples=4, seed=5)
    assert report["associativity"]["count"] == 1
    assert report["associativity"]["worst_point"][-2:] == [0.23041399782101113, -0.5037455698942837]


@pytest.mark.parametrize("src, d, pi_box", [
    ("x1*x2", BOX, 1.0), ("sin(x1)+2", g2.Domain2D(-2, 2, -1, 3), 3.0), ("0", BOX, 1.0),
    ("log(x1)", g2.Domain2D(-1, 3, -1, 1), 2.0), ("x1 - 1", g2.Domain2D(0, 2, 0, 1), 0.5)])
def test_block_samplers_match_tries_one_at_a_time(src, d, pi_box):
    # 30 samples take several blocks where few candidates are members
    p = g2.Phi2D.parse(src)
    for pairs, sampler in enumerate([g2.sample_points, g2.sample_composable_pairs]):
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        want, _ = _one_at_a_time(p, d, 30, ref, pairs, pi_box)
        assert _bits(sampler(p, d, 30, rng, pi_box)) == _bits(want)
        assert rng.random() == ref.random()


@pytest.mark.parametrize("pairs, sampler", enumerate([g2.sample_points, g2.sample_composable_pairs]))
def test_a_raising_candidate_past_the_last_try_is_not_decided(pairs, sampler, monkeypatch):
    # a block draws past the last try; where it holds a candidate whose
    # decision raises, smaller blocks stop short of it as tries one at a time do
    samples, drawn = _one_at_a_time(QP, BOX, 3, np.random.default_rng(2), pairs)
    bad = _one_at_a_time(QP, BOX, 4, np.random.default_rng(2), pairs)[1][len(drawn)][0].x
    members = g2._members

    def raising(p, d, x, pi):
        if (x == bad[:, None]).all(0).any():
            raise RuntimeError("ray integral of phi not converged at 1024 nodes")
        return members(p, d, x, pi)

    monkeypatch.setattr(g2, "_members", raising)
    rng, ref = np.random.default_rng(2), np.random.default_rng(2)
    assert _bits(sampler(QP, BOX, 3, rng)) == _bits(samples)
    _one_at_a_time(QP, BOX, 3, ref, pairs)
    assert rng.bit_generator.state == ref.bit_generator.state
    with pytest.raises(RuntimeError, match="not converged"):
        sampler(QP, BOX, 4, np.random.default_rng(2))


@pytest.mark.parametrize("src, d", [("1e6", g2.Domain2D(0, 1, 0, 1)), ("x1*x2", BOX)])
@pytest.mark.parametrize("sampler, what", [(g2.sample_points, "groupoid points"),
                                           (g2.sample_composable_pairs, "composable pairs")])
def test_an_exhausted_sampler_stops_after_its_last_try(src, d, sampler, what, monkeypatch):
    # phi = 1e6 sends every ray with |pi| > 1e-6 out of the unit square: no
    # candidate is a member, and 40 tries take 160 draws
    monkeypatch.setattr(g2, "SAMPLE_MAX_TRIES", 40)
    p = g2.Phi2D.parse(src)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.raises(RuntimeError, match=f"^sampling failed to find enough {what}$"):
        sampler(p, d, 1000, rng)
    samples, drawn = _one_at_a_time(p, d, 1000, ref, sampler is g2.sample_composable_pairs, max_tries=40)
    assert samples is None
    if src == "1e6":
        assert len(drawn) == 40 and not any(member for _, member in drawn)
        ref = np.random.default_rng(3)
        ref.random(160)
    assert rng.random() == ref.random()


# domain-limited phi: a block where phi raises DomainError is decided point
# by point; 1e3*(x1 - x1) + 1: the 20 rays from x1 = -1.5 ... -0.55 need 256
# open pieces each after two cuts, more than RAY_MAX_PIECES together
_FALLBACK_PHI = ["log(x1)", "1/(x1 - 1)", "sqrt(x2)", "1e3*(x1 - x1) + 1"]


@pytest.mark.parametrize("src", TARGET_PHI + ["x1 - 1"] + _FALLBACK_PHI)
def test_members_match_contains_point_by_point(src, monkeypatch):
    p, d = g2.Phi2D.parse(src), g2.Domain2D(-2, 2, -1, 3)
    rng = np.random.default_rng(17)
    m = 40 if src.startswith("1e3") else 300
    x = np.stack([rng.uniform(-2.5, 2.5, m), rng.uniform(-1.5, 3.5, m)])
    pi = rng.uniform(-3, 3, (2, m))
    # the edges of the box, x1 = 1 (1/(x1 - 1) is undefined there) and the
    # BRANCH_SWITCH band of x1 - 1 at x1 = 1 + 1e-12
    edges = np.array([[-2, 0.5], [2, 0.5], [0.5, -1], [0.5, 3], [-2, -1], [1, 0.5], [1, 2],
                      [1 + 1e-12, 0.5], [1 + 1e-12, 2], [1 - 1e-12, 0.5], [1 + 2e-9, 0.5]]).T
    rays = np.stack([np.linspace(-1.5, -0.55, 20), np.full(20, 0.5)])
    # and four rays from (0.5, 1) that end on the four edges, to rounding
    ends = np.array([[2, -2, 0, 0], [0, 0, -1.5, 2.5]]) / (p((0.5, 1.0)) or 1.0)
    x = np.concatenate([x, edges, edges, rays, np.tile([[0.5], [1.0]], 4)], 1)
    pi = np.concatenate([pi, rng.uniform(-3, 3, edges.shape), rng.uniform(-0.01, 0.01, edges.shape),
                         np.tile([[0.5], [-1.0]], 20), ends], 1)
    calls, contains = [], g2.contains
    monkeypatch.setattr(g2, "contains", lambda *args: calls.append(args) or contains(*args))
    got = g2._members(p, d, x, pi)
    monkeypatch.undo()
    want = [g2.contains(p, d, pt(x[:, k], pi[:, k])) for k in range(x.shape[1])]
    assert got.dtype == bool and got.tolist() == want
    assert 0 < sum(want) < len(want) or src in ("log(x1)", "sqrt(x2)")
    assert (len(calls) > 0) == (src in _FALLBACK_PHI)


MEMBERSHIP_CORPUS_PHI = [
    "x1*x2", "sin(x1)+2", "x2", "0", "-3", "1/x1", "sqrt(x1)", "log(x2)", "1e5*(x1 - x1) + 1",
    "x1^3 - 2*x1*x2 + x2^2 - 1", "x1 - 1", "exp(x1/3)*x2 + log(x2*x2 + 1)", "cos(x1*x2) + 0.5*x1"]
# sha256 of the answers of contains, then of _members, on every corpus point
MEMBERSHIP_CORPUS_DIGEST = "0a7c88bfd0d3c773f267fb0859b0e178926ec41099b154a64afe464d84e86104"


def _membership_corpus(p, k):
    """(x, pi) of shape (2, m) each around BOX: random x with pi at four
    scales, pi with an infinite component, and rays from four points to
    each edge of BOX, ending on it to rounding."""
    rng = np.random.default_rng([23, k])
    m = 40 if k == 8 else 150  # a ray of 1e5*(x1 - x1) + 1 takes up to RAY_MAX_PIECES pieces
    x = rng.uniform(-11, 11, (2, m))
    pi = rng.uniform(-2, 2, (2, m)) * rng.choice([0.01, 0.3, 1.0, 5.0], m)
    infinite = np.array([[np.inf, 0.5], [-0.5, -np.inf], [np.inf, -np.inf], [0.0, np.inf]]).T
    starts = [(4.0, 0.5), (2.5, 6.0), (0.75, 1.25), (8.0, 3.0)]
    rays = []
    for a, b in starts:
        f = p((a, b)) or 1.0
        rays += [(a, b, 0.3, (a - 10) / f), (a, b, 0.3, (a + 10) / f),
                 (a, b, (10 - b) / f, -0.2), (a, b, (-10 - b) / f, -0.2)]
    rays = np.array(rays).T
    return np.concatenate([x, x[:, :4], rays[:2]], 1), np.concatenate([pi, infinite, rays[2:]], 1)


# numpy's warning on phi(x) = 0 times an infinite pi is the next test's concern
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_membership_answers_are_pinned():
    # 13 phi, among them undefined on part of BOX and one whose enclosures
    # overestimate by orders of magnitude: every answer of contains and of
    # _members, one point at a time and as stacks
    one, many = [], []
    for k, src in enumerate(MEMBERSHIP_CORPUS_PHI):
        p = g2.Phi2D.parse(src)
        x, pi = _membership_corpus(p, k)
        one += [g2.contains(p, BOX, pt(x[:, j], pi[:, j])) for j in range(x.shape[1])]
        many += g2._members(p, BOX, x, pi).tolist()
    assert one == many
    assert hashlib.sha256(bytes(one + many)).hexdigest() == MEMBERSHIP_CORPUS_DIGEST


@pytest.mark.parametrize("src", ["0", "x1*x2"])
def test_an_infinite_pi_is_not_a_member_and_warns_of_nothing(src):
    # phi(x) = 0 times an infinite pi is NaN, an end outside the rectangle
    p = g2.Phi2D.parse(src)
    x, pi = np.array([[0.0, 0.0], [0.5, 0.0]]), np.array([[np.inf, 0.0], [1.0, -np.inf]])
    assert not any(g2.contains(p, BOX, pt(x[:, k], pi[:, k])) for k in range(2))
    assert g2._members(p, BOX, x, pi).tolist() == [False, False]


@pytest.mark.parametrize("samples", [0, -1])
def test_verify_axioms_rejects_an_empty_sample(samples):
    with pytest.raises(ValueError, match="at least 1 sample"):
        g2.verify_axioms(QP, BOX, samples=samples)


def test_verify_axioms_fails_a_check_that_never_ran():
    # with one sample and seed 0 no third factor is a member
    report = g2.verify_axioms(QP, BOX, samples=1, seed=0)
    assert list(report) == list(g2.AXIOM_TOLERANCES)
    assert report.pop("associativity") == {
        "max_dev": -1.0, "tol": 1e-12, "worst_point": None, "count": 0, "passed": False}
    assert all(entry["count"] == 1 and entry["passed"] for entry in report.values())


def _nan_h_gradient(p, g):
    return np.full((4, *np.shape(g.x)[1:]), np.nan)


def test_verify_axioms_fails_a_deviation_that_is_not_a_number(monkeypatch):
    # NaN > max_dev is False: a NaN deviation must fail, not pass unseen
    monkeypatch.setattr(g2, "_h_gradient", _nan_h_gradient)
    report = g2.verify_axioms(QP, BOX, samples=10, seed=0)
    rng = np.random.default_rng(0)
    g = g2.sample_points(QP, BOX, 10, rng)[0]
    a, b = g2.sample_composable_pairs(QP, BOX, 10, rng)[0]
    for name, where, count in [("inversion_anti_poisson", [*g.x, *g.pi], 10),
                               ("product_pullback", [*a.x, *a.pi, *b.pi], 5)]:
        entry = report.pop(name)
        assert math.isnan(entry.pop("max_dev"))
        assert entry == {"tol": g2.AXIOM_TOLERANCES[name], "worst_point": where, "count": count,
                         "passed": False}
    assert all(entry["passed"] for entry in report.values())


def test_exact_derivatives_match_finite_differences():
    # an independent check of dP and grad h: central differences of P and h
    p = g2.Phi2D.parse("sin(x1)*x2 + x1^2")
    g = pt([0.4, 0.9], [0.3, -0.5])
    z, step = np.concatenate([g.x, g.pi]), 1e-6
    for k in range(4):
        dz = np.zeros(4)
        dz[k] = step
        hi, lo = pt(z[:2] + dz[:2], z[2:] + dz[2:]), pt(z[:2] - dz[:2], z[2:] - dz[2:])
        dP = (g2.bivector(p, hi) - g2.bivector(p, lo)) / (2 * step)
        dh = (g2.h_map(p, hi) - g2.h_map(p, lo)) / (2 * step)
        assert np.max(np.abs(g2._bivector_gradient(p, g)[k] - dP)) < 1e-8
        assert abs(g2._h_gradient(p, g)[k] - dh) < 1e-8


@pytest.mark.parametrize("x, pi", [
    ([-8.987604754031263, -0.9805924134492479], [0.11083312432264436, -0.7616589513562826]),
    ([-3.323820595764781, 0.28452319125422854], [0.30051700014662774, -0.6768399025498912]),
])
def test_inverse_is_a_unit_where_h_is_small(x, pi):
    # h = 9.8e-4 and 1.4e-3 here; -pi / h from the integral h leaves g^-1 g
    # off the unit by 1.2e-11 and 3.9e-12, since the relative error of h
    # enters g^-1 g amplified by 1/h
    g = pt(x, pi)
    gi = g2.inverse(QP, g)
    for prod in (g2.multiply(QP, g, gi), g2.multiply(QP, gi, g, tol=1e-6)):
        assert np.max(np.abs(prod.pi)) <= 1e-12


def test_inverse_is_a_unit_next_to_a_slanted_zero_locus():
    # phi = x1 - 1 at x1 = 1 + 2^-40: h = 0.7 exactly, but x_f1 rounds by
    # 0.2 ulp, so phi(x_f) / phi(x) is off by a relative 7e-5
    p = g2.Phi2D.parse("x1 - 1")
    g = pt([1.0 + 2.0 ** -40, 0.0], [0.2, 0.3])
    assert g2.contains(p, g2.Domain2D(-2, 2, -2, 2), g)
    gi = g2.inverse(p, g)
    assert np.allclose(gi.pi, -g.pi / 0.7, rtol=1e-15, atol=0.0)
    for prod in (g2.multiply(p, g, gi), g2.multiply(p, gi, g, tol=1e-6)):
        assert np.max(np.abs(prod.pi)) <= 1e-15


@pytest.mark.parametrize("seed", [102, 172])
def test_inversion_anti_poisson_where_h_is_small(seed):
    # h ~ 2e-4 on these draws; J P J^T formed as a plain product leaves
    # 2.4e-6 and 1.1e-6 of rounding against a residual of 2e-8 and 3e-7
    report = g2.verify_axioms(QP, BOX, samples=20, seed=seed)
    assert report["inversion_anti_poisson"]["passed"], report["inversion_anti_poisson"]
