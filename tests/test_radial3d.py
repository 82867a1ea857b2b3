import math

import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import radial3d as rad
from psgroupoid.poisson import rot_invariant3

FOUR_PI = 4 * math.pi

CUBIC = "R/(1+(R-1)^3)"


def profile(src, lo=0.5, hi=2.0):
    return rad.RadialProfile.parse(src, lo, hi)


def test_profile_rejects_vanishing_f():
    with pytest.raises(ValueError):
        profile("R-1")  # vanishes at R = 1
    with pytest.raises(ValueError):
        rad.RadialProfile.parse("1", 2.0, 1.0)  # bad range


@pytest.mark.parametrize("src", ["R-1", "1/(R-1)"])
def test_profile_rejects_f_vanishing_or_singular_between_samples(src):
    # no radius of the old 1024-point sample of [0.5, 1.5] lands on R = 1:
    # "R-1" was accepted, and area(p, 1 + 1e-9) read 1.26e10
    with pytest.raises(ValueError, match="^f must be finite and nonzero on the range$"):
        rad.RadialProfile.parse(src, 0.5, 1.5)


def test_area_reference_values():
    assert math.isclose(rad.area(profile("1"), 1.5), FOUR_PI * 1.5,
                        rel_tol=1e-15)
    assert math.isclose(rad.area(profile("R"), 0.7), FOUR_PI, rel_tol=1e-15)
    p = profile(CUBIC, 0.6, 1.4)
    assert math.isclose(rad.area(p, 1.0), FOUR_PI, rel_tol=1e-13)
    # A = 4 pi (1 + (R-1)^3) for the cubic profile
    assert math.isclose(rad.area(p, 1.2), FOUR_PI * (1 + 0.2 ** 3),
                        rel_tol=1e-13)
    with pytest.raises(ValueError):
        rad.area(profile("1"), 3.0)  # out of range


def c_invariant_from_area(p, R):
    """C(R) through the area derivative, 1 - f A' / (4 pi)."""
    p.check_range(R)
    return 1.0 - p.f_at(R) * ex.evaluate(p.darea, {"R": R}) / rad.FOUR_PI


def test_c_invariant_values_and_formula_agreement():
    assert rad.c_invariant(profile("1"), 1.3) == 0.0
    assert math.isclose(rad.c_invariant(profile("R"), 1.3), 1.0,
                        rel_tol=1e-15)
    p = profile(CUBIC, 0.6, 1.4)
    assert abs(rad.c_invariant(p, 1.0) - 1.0) < 1e-14
    for src, lo, hi in (("1", 0.5, 2.0), ("R", 0.5, 2.0),
                        (CUBIC, 0.6, 1.4), ("1/(1+R^2)", 0.5, 2.0)):
        q = profile(src, lo, hi)
        for R in np.linspace(lo, hi, 101):
            assert abs(rad.c_invariant(q, R)
                       - c_invariant_from_area(q, R)) < 1e-8


def test_classify_fiber_and_period():
    assert rad.classify_fiber(profile("1"), 1.0) == rad.FIBER_SU2
    assert rad.classify_fiber(profile("R"), 1.0) == rad.FIBER_S2XR
    p = profile(CUBIC, 0.6, 1.4)
    assert rad.classify_fiber(p, 1.0) == rad.FIBER_S2XR
    assert rad.classify_fiber(p, 1.2) == rad.FIBER_SU2
    assert math.isclose(rad.period(profile("1"), 2.0), FOUR_PI, rel_tol=1e-15)
    assert rad.period(profile("R"), 1.0) == 0.0
    assert abs(rad.period(p, 1.0)) < 1e-13


def test_fiber_iff_zero_period():
    for src, lo, hi in (("1", 0.5, 2.0), ("R", 0.5, 2.0), (CUBIC, 0.6, 1.4)):
        p = profile(src, lo, hi)
        for R in np.linspace(lo, hi, 64):
            s2xr = rad.classify_fiber(p, R) == rad.FIBER_S2XR
            assert s2xr == (abs(rad.period(p, R)) <= 1e-9 * FOUR_PI)


def test_analyze_three_reference_profiles():
    rep = rad.analyze(profile("1"), 256)
    assert rep["verdict"] == rad.VERDICT_SMOOTH_REGULAR
    assert rep["critical_points"] == []
    assert all(s["fiber"] == rad.FIBER_SU2 for s in rep["samples"])

    rep = rad.analyze(profile("R"), 256)
    assert rep["verdict"] == rad.VERDICT_SMOOTH_CONSTANT
    assert rep["critical_points"] == []
    assert all(s["fiber"] == rad.FIBER_S2XR for s in rep["samples"])

    rep = rad.analyze(profile(CUBIC, 0.6, 1.4), 512)
    assert rep["verdict"] == rad.VERDICT_SINGULAR
    assert len(rep["critical_points"]) == 1
    assert abs(rep["critical_points"][0]["R"] - 1.0) < 1e-6
    # fiber flips exactly at the critical radius, nowhere else
    flips = [s for s in rep["samples"] if s["fiber"] == rad.FIBER_S2XR]
    assert all(abs(s["R"] - 1.0) < 1e-3 for s in flips)


def test_analyze_simple_sign_change_critical_point():
    # A = 4 pi (1 + (R - 1.2)^2) has an interior minimum at R = 1.2
    p = rad.RadialProfile.parse("R/(1+(R-1.2)^2)", 0.5, 2.0)
    rep = rad.analyze(p, 512)
    assert rep["verdict"] == rad.VERDICT_SINGULAR
    points = {c["kind"]: c["R"] for c in rep["critical_points"]}
    assert abs(points["sign_change"] - 1.2) < 1e-9


@pytest.mark.parametrize("n_samples", [3, 5, 513, 512])
def test_analyze_reports_a_zero_on_the_grid_once(n_samples):
    # A' of R/(1+(R-1)^2) is exactly zero at R = 1, a grid point of 3, 5
    # and 513 samples of [0.5, 1.5]; the sign-change scan used to bisect
    # up to that zero too and report R = 0.99999999997 beside it
    p = rad.RadialProfile.parse("R/(1+(R-1)^2)", 0.5, 1.5)
    rep = rad.analyze(p, n_samples)
    assert rep["verdict"] == rad.VERDICT_SINGULAR
    [point] = rep["critical_points"]
    assert abs(point["R"] - 1.0) < 1e-9
    if n_samples != 512:  # 512 samples have no grid point at R = 1
        assert point == {"R": 1.0, "kind": "zero"}


def test_analyze_builds_no_program(monkeypatch):
    # the bisections read A' and A'' from p.columns, which the profile has
    # compiled: a fresh profile used to compile A' and A'' on first bisection
    p = rad.RadialProfile.parse(CUBIC, 0.6, 1.4)
    built, program = [], ex.Program
    monkeypatch.setattr(ex, "Program", lambda *a: built.append(a) or program(*a))
    rep = rad.analyze(p, 64)
    assert {c["kind"] for c in rep["critical_points"]} == {"degenerate"}
    assert built == []


def test_decompose():
    v_r, v_t = rad.decompose([1.0, 1.0, 0.0], [0.0, 0.0, 2.0])
    assert v_r == 0.0
    assert np.allclose(v_t, [1.0, 1.0, 0.0])
    X = np.array([1.0, 2.0, 2.0])
    v_r, v_t = rad.decompose(X, X)
    assert math.isclose(v_r, 3.0, rel_tol=1e-15)
    assert np.max(np.abs(v_t)) < 1e-15
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(3)
        X = rng.standard_normal(3)
        v_r, v_t = rad.decompose(v, X)
        assert np.max(np.abs(v - v_r * X / np.linalg.norm(X) - v_t)) < 1e-15
        assert abs(v_t @ X) < 1e-14
    with pytest.raises(ValueError):
        rad.decompose(v, [0.0, 0.0, 0.0])


def _solved_path(src, seed=1, N=1000, amp=0.3):
    s = rot_invariant3(ex.parse(src, ["R"]))
    rng = np.random.default_rng(seed)
    u = np.linspace(0, 1, N + 1)
    eta = np.zeros((N + 1, 3))
    for k in range(1, 4):
        eta += amp / k * np.outer(np.sin(np.pi * k * u), rng.standard_normal(3))
    m = ps.solve_gauss(s, [0.7, 0.4, 0.5], eta)
    return s, m


def test_radial_residual_matches_generic():
    s, m = _solved_path(CUBIC)
    p = profile(CUBIC, 0.6, 1.4)
    assert abs(rad.radial_gauss_residual(p, m) - ps.gauss_residual(s, m)) < 1e-10


def test_radial_residual_trivial_cases():
    p = profile("1")
    X = np.tile([1.0, 0.0, 0.0], (101, 1))
    zero = ps.DiscretizedMorphism(n=3, X=X, eta=np.zeros((101, 3)))
    assert rad.radial_gauss_residual(p, zero) == 0.0
    # purely radial eta with constant X also solves the constraint
    radial_eta = 0.3 * X.copy()
    m = ps.DiscretizedMorphism(n=3, X=X, eta=radial_eta)
    assert rad.radial_gauss_residual(p, m) < 1e-14


def test_leaves_are_spheres():
    _, m = _solved_path(CUBIC)
    radii = np.linalg.norm(m.X, axis=1)
    assert np.max(radii) - np.min(radii) < 1e-8


def test_rescale_to_unit_coefficient_system():
    _, m = _solved_path(CUBIC, N=3000, amp=0.2)
    p = profile(CUBIC, 0.6, 1.4)
    m2 = rad.rescale(p, m)
    su2 = ld.kk_structure(ld.builtin_spec("su2"))
    assert ps.gauss_residual(su2, m2) < 1e-6
    assert np.array_equal(m2.X, m.X)


def test_rescale_identity_when_f_is_one():
    _, m = _solved_path("1")
    m2 = rad.rescale(profile("1"), m)
    assert np.max(np.abs(m2.eta - m.eta)) < 1e-14


def test_rescale_rejects_constant_area_stratum():
    _, m = _solved_path("R")
    with pytest.raises(ValueError):
        rad.rescale(profile("R"), m)


def test_array_formulas_match_node_by_node_loops():
    # reference: the per-node loops that the array formulas replace
    _, m = _solved_path(CUBIC, N=300)
    p = profile(CUBIC, 0.6, 1.4)
    Xp = ps.path_derivative(m.X)
    radii = np.linalg.norm(m.X, axis=1)
    worst, a = 0.0, np.empty_like(m.eta)
    for k in range(m.N + 1):
        R = float(radii[k])
        eta_r, eta_t = rad.decompose(m.eta[k], m.X[k])
        f = p.f_at(R)
        worst = max(worst, np.linalg.norm(Xp[k] + f * np.cross(eta_t, m.X[k])))
        a[k] = (f / (1.0 - rad.c_invariant(p, R))) * eta_r * (m.X[k] / R) + f * eta_t
    # both cancel terms of order 1, so they agree to a few ulps of 1
    assert abs(rad.radial_gauss_residual(p, m) - worst) < 1e-14
    assert np.max(np.abs(rad.rescale(p, m).eta - a)) < 1e-14
    for row in rad.analyze(p, 64)["samples"]:
        assert row["C"] == rad.c_invariant(p, row["R"])
        assert row["period"] == rad.period(p, row["R"])


@pytest.mark.parametrize("radii, src, call, named", [
    ([1.0, 1.5, 2.1, 2.6], "1", rad.radial_gauss_residual, "R = 2.1 outside"),
    ([1.0, 1.5, 2.1, 2.6], "1", rad.rescale, "R = 2.1 outside"),
    ([1.2, 1.0, 1.5], CUBIC, rad.rescale, "at R = 1;"),
    ([1.2, 1.5, 1.0], CUBIC, rad.rescale, "R = 1.5 outside"),
])
def test_errors_name_the_first_node_that_fails(radii, src, call, named):
    X = np.outer(radii, [0.0, 0.6, 0.8])
    m = ps.DiscretizedMorphism(n=3, X=X, eta=np.ones_like(X))
    with pytest.raises(ValueError, match=named):
        call(profile(src, 0.6, 1.4 if src == CUBIC else 2.0), m)


def test_csv_export_has_header_and_rows():
    rep = rad.analyze(profile("1"), 8)
    text = rad.analyze_to_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "R,A,dA,C,fiber,period"
    assert len(lines) == 9
