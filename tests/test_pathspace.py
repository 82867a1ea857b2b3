import math

import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import pathspace as ps
from psgroupoid import poisson as po

PI = math.pi


def _phi_structure(src="x1*x2"):
    return po.two_domain(ex.parse(src, ["x1", "x2"]))


def _smooth_eta(N, n, seed=0, amp=0.4):
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, N + 1)
    eta = np.zeros((N + 1, n))
    for k in range(1, 4):
        eta += amp / k * np.outer(np.sin(PI * k * u), rng.standard_normal(n))
    return eta


def test_morphism_shape_validation():
    with pytest.raises(ValueError):
        ps.DiscretizedMorphism(n=2, X=np.zeros((5, 2)), eta=np.zeros((4, 2)))


@pytest.mark.parametrize("nodes", [1, 2])
def test_morphism_rejects_too_few_nodes(nodes):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        ps.DiscretizedMorphism(n=2, X=np.zeros((nodes, 2)), eta=np.zeros((nodes, 2)))


@pytest.mark.parametrize("N", [0, 1])
def test_solve_gauss_rejects_too_short_grids(N):
    # N = 0 used to divide by zero before any check
    with pytest.raises(ValueError, match="at least 3 nodes"):
        ps.solve_gauss(_phi_structure(), [1.0, 1.0], np.zeros((N + 1, 2)))


@pytest.mark.parametrize("tapered", [False, True])
def test_taper_rate_is_the_derivative_of_scale(tapered):
    u = np.linspace(0.0, 1.0, 401)
    scale, rate = ps.taper(u, tapered)
    assert scale[0] == 0.0 and scale[-1] == 1.0
    assert np.max(np.abs(ps.path_derivative(scale) - rate)) < 1e-3
    if tapered:
        assert rate[0] == rate[-1] == 0.0


def test_morphism_json_round_trip():
    m = ps.DiscretizedMorphism(n=2, X=np.random.default_rng(0).random((9, 2)),
                               eta=np.random.default_rng(1).random((9, 2)))
    back = ps.DiscretizedMorphism.from_json(m.to_json())
    assert back.n == 2 and back.N == 8
    assert np.array_equal(back.X, m.X)
    assert np.array_equal(back.eta, m.eta)


def test_path_derivative_exact_on_quadratics():
    u = np.linspace(0.0, 1.0, 11)
    Y = np.stack([u ** 2, 3 * u + 1], axis=1)
    D = ps.path_derivative(Y)
    assert np.allclose(D[:, 0], 2 * u, atol=1e-12)
    assert np.allclose(D[:, 1], 3.0, atol=1e-12)


def test_solve_gauss_residual_small_and_converges():
    s = _phi_structure()
    eta = _smooth_eta(500, 2, seed=2)
    m = ps.solve_gauss(s, [1.0, 1.0], eta)
    r500 = ps.gauss_residual(s, m)
    m2 = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=2))
    r1000 = ps.gauss_residual(s, m2)
    assert r500 < 1e-4
    assert r1000 < r500  # second-order-ish decay of the nodal residual


def test_solve_gauss_constant_structure_is_linear_flow():
    # alpha constant: X(u) = x0 - alpha int_0^u eta
    A = np.array([[0.0, 2.0], [-2.0, 0.0]])
    s = po.constant_structure(A)
    N = 800
    u = np.linspace(0, 1, N + 1)
    eta = np.stack([np.sin(PI * u), np.cos(PI * u) - 1.0], axis=1)
    m = ps.solve_gauss(s, [0.5, -0.25], eta)
    Ieta = np.zeros_like(eta)
    Ieta[1:] = np.cumsum(0.5 * (eta[1:] + eta[:-1]) / N, axis=0)
    expect = np.array([0.5, -0.25])[None, :] - Ieta @ A.T
    assert np.max(np.abs(m.X - expect)) < 1e-6


def test_gauge_field_boundary_validation():
    with pytest.raises(ValueError):
        ps.GaugeField.parse(["x1", "0"], 2)  # does not vanish at u = 0, 1
    ps.GaugeField.parse(["x1*u*(1-u)", "0"], 2)  # fine


def test_gauge_flow_preserves_constraint():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(2000, 2, seed=3))
    beta = ps.GaugeField.parse(
        ["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)*x1"], 2)
    flowed = ps.gauge_flow(s, m, beta, s_total=1.0)
    # constraint preserved up to discretization of the moved path
    assert ps.gauss_residual(s, flowed) < 1e-4
    # the flow genuinely moves the path
    assert np.max(np.abs(flowed.X - m.X)) > 1e-3


def _path_through_ball(N=10):
    # x1 = -1 + 2k/N, x2 = 0.1: nodes 3 to 7 lie within radius 0.5
    u = np.linspace(0.0, 1.0, N + 1)
    X = np.stack([2 * u - 1, np.full_like(u, 0.1), np.zeros_like(u)], axis=1)
    return ps.DiscretizedMorphism(n=3, X=X, eta=np.zeros_like(X))


def test_gauss_residual_names_the_first_node_outside_the_domain():
    s = po.rot_invariant3(ex.parse("1", ["R"]), r_min=0.5)
    with pytest.raises(po.DomainError, match=r"X exits domain at node 3$"):
        ps.gauss_residual(s, _path_through_ball())


def test_gauge_flow_names_the_first_node_outside_the_domain():
    # the gauge flow moves X along spheres, so the same nodes stay inside
    s = po.rot_invariant3(ex.parse("1", ["R"]), r_min=0.5)
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0.5*u*(1-u)", "0"], 3)
    m = _path_through_ball()
    with pytest.raises(po.DomainError, match=r"gauge flow exits domain at node 3$"):
        ps.gauge_flow(s, m, beta, s_steps=4, check_residual=False)


def test_point_only_in_domain_is_refused_on_a_batch():
    # one bool from the norm of the whole (m, n) array would pass nodes 3-7
    good = po.rot_invariant3(ex.parse("1", ["R"]), r_min=0.5)
    s = po.PoissonStructure(n=3, alpha=good.alpha, dalpha=good.dalpha,
                            in_domain=lambda x: bool(np.linalg.norm(x) >= 0.5),
                            name="point_only")
    with pytest.raises(ValueError, match=r"in_domain of point_only returned shape \(\)"):
        ps.gauss_residual(s, _path_through_ball())


def test_symplectic_pairing_antisymmetric():
    rng = np.random.default_rng(4)
    a = ps.TangentVector(rng.random((64, 2)), rng.random((64, 2)))
    b = ps.TangentVector(rng.random((64, 2)), rng.random((64, 2)))
    assert math.isclose(ps.symplectic_pairing(a, b),
                        -ps.symplectic_pairing(b, a), rel_tol=1e-12)
    assert abs(ps.symplectic_pairing(a, a)) < 1e-15


def test_hamiltonian_vanishes_on_shell():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=5))
    beta = ps.GaugeField.parse(["u*(1-u)*x1", "0.3*sin(3.141592653589793*u)"], 2)
    assert abs(ps.hamiltonian(s, m, beta)) < 1e-6


def test_hamiltonian_differential_matches_pairing():
    s = _phi_structure()
    # deliberately off-shell base point
    N = 400
    u = np.linspace(0, 1, N + 1)
    X = np.stack([1.0 + 0.3 * np.sin(PI * u), 1.0 + 0.2 * u], axis=1)
    eta = _smooth_eta(N, 2, seed=6)
    m = ps.DiscretizedMorphism(n=2, X=X, eta=eta)
    beta = ps.GaugeField.parse(
        ["0.2*u*(1-u)*x2", "0.1*sin(3.141592653589793*u)"], 2)
    assert ps.hamiltonian_check(s, m, beta, trials=10) < 1e-4


def test_equivariance_of_moment_map():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(800, 2, seed=7))
    beta = ps.GaugeField.parse(
        ["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)"], 2)
    gamma = ps.GaugeField.parse(
        ["0.3*u*(1-u)*x1", "0.2*sin(3.141592653589793*u)*x1*x2"], 2)
    assert ps.equivariance_defect(s, m, beta, gamma) < 1e-3


def test_concatenate_requires_matching_endpoint():
    m1 = ps.DiscretizedMorphism(n=2, X=np.zeros((5, 2)), eta=np.zeros((5, 2)))
    X2 = np.ones((5, 2))
    m2 = ps.DiscretizedMorphism(n=2, X=X2, eta=np.zeros((5, 2)))
    with pytest.raises(ValueError):
        ps.concatenate(m1, m2)


def test_concatenate_rejects_nonvanishing_junction_eta():
    m1 = ps.DiscretizedMorphism(n=2, X=np.zeros((5, 2)), eta=np.ones((5, 2)))
    m2 = ps.DiscretizedMorphism(n=2, X=np.zeros((5, 2)), eta=np.ones((5, 2)))
    with pytest.raises(ValueError):
        ps.concatenate(m1, m2)


def test_concatenate_keeps_constraint():
    s = _phi_structure()
    # sin(pi u) components vanish at both ends, so the halves taper
    N = 1000
    u = np.linspace(0, 1, N + 1)
    eta1 = np.stack([0.3 * np.sin(PI * u) ** 2, 0.1 * np.sin(PI * u) ** 2],
                    axis=1)
    m1 = ps.solve_gauss(s, [1.0, 1.0], eta1)
    eta2 = np.stack([-0.2 * np.sin(PI * u) ** 2, 0.25 * np.sin(PI * u) ** 2],
                    axis=1)
    m2 = ps.solve_gauss(s, m1.X[-1], eta2)
    glued = ps.concatenate(m1, m2)
    assert glued.N == 2 * N
    assert np.allclose(glued.X[N], m1.X[-1])
    assert ps.gauss_residual(s, glued) < 5e-5


def test_reverse_is_involutive_and_preserves_constraint():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(800, 2, seed=8))
    rev = ps.reverse(m)
    assert np.array_equal(rev.X[0], m.X[-1])
    assert ps.gauss_residual(s, rev) <= ps.gauss_residual(s, m) + 1e-12
    back = ps.reverse(rev)
    assert np.array_equal(back.X, m.X)
    assert np.array_equal(back.eta, m.eta)


def test_reverse_then_concatenate_gives_trivial_invariants():
    # m followed by its reverse is a contractible loop: same start point,
    # holonomy-type invariants cancel (checked in the 2D module tests);
    # here just the constraint and endpoint bookkeeping
    s = _phi_structure()
    N = 1000
    u = np.linspace(0, 1, N + 1)
    eta = np.stack([0.3 * np.sin(PI * u) ** 2, 0.1 * np.sin(PI * u) ** 2],
                   axis=1)
    m = ps.solve_gauss(s, [1.0, 1.0], eta)
    loop = ps.concatenate(m, ps.reverse(m))
    assert np.allclose(loop.X[0], loop.X[-1])
    assert ps.gauss_residual(s, loop) < 5e-5
