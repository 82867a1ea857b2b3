import math

import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import lie_dual as ld
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


def test_path_integral_is_the_cumulative_trapezoid_rule():
    u = np.linspace(0.0, 1.0, 11)
    Y = np.stack([3 * u + 1, u ** 2], axis=1)
    I = ps.path_integral(Y)
    assert I.shape == Y.shape and np.all(I[0] == 0.0)
    assert np.allclose(I[:, 0], 1.5 * u ** 2 + u, atol=1e-15)  # exact on lines
    assert np.allclose(I[-1], [2.5, 1 / 3 + 1 / 600], atol=1e-15)  # du^2 / 6 on u^2
    assert ps.path_integral(u ** 3)[-1] == pytest.approx(np.trapezoid(u ** 3, u), abs=1e-16)


def test_path_integral_is_second_order():
    errors = [abs(ps.path_integral(np.exp(np.linspace(0.0, 1.0, N + 1)))[-1] - (math.e - 1))
              for N in (50, 100, 200)]
    assert [round(math.log2(a / b), 2) for a, b in zip(errors, errors[1:])] == [2.0, 2.0]


def test_midpoints_are_the_mean_of_each_interval():
    Y = np.array([[0.0, 4.0], [1.0, 2.0], [3.0, 2.0]])
    assert np.array_equal(ps.midpoints(Y), [[0.5, 3.0], [2.0, 2.0]])


@pytest.mark.parametrize("N", [3, 4, 9])
def test_cubic_midpoints_are_exact_on_cubics(N):
    u = np.linspace(0.0, 1.0, N + 1)
    Y = np.stack([u ** 3 - 2 * u, 1 - u ** 2], axis=1)
    mid = 0.5 * (u[:-1] + u[1:])
    assert np.allclose(ps.cubic_midpoints(Y), np.stack([mid ** 3 - 2 * mid, 1 - mid ** 2], axis=1),
                       rtol=0, atol=1e-15)


def test_cubic_midpoints_of_three_nodes_are_the_means():
    Y = np.array([[0.0, 4.0], [1.0, 2.0], [3.0, 2.0]])
    assert np.array_equal(ps.cubic_midpoints(Y), ps.midpoints(Y))


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
    Ieta = np.stack([(1.0 - np.cos(PI * u)) / PI, np.sin(PI * u) / PI - u], axis=1)
    expect = np.array([0.5, -0.25])[None, :] - Ieta @ A.T
    assert np.max(np.abs(m.X - expect)) < 1e-10


@pytest.mark.parametrize("name", ["x1*x2", "cubic"])
def test_solve_gauss_is_fourth_order(name):
    if name == "cubic":
        s, x0 = po.rot_invariant3(ex.parse("R/(1+(R-1)^3)", ["R"])), [0.5, -0.6, 0.4]
    else:
        s, x0 = _phi_structure(), [1.0, 0.8]
    ends = [ps.solve_gauss(s, x0, _smooth_eta(N, s.n, seed=9, amp=1.0)).X[-1]
            for N in (80, 160, 320)]
    order = math.log2(np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2])))
    assert abs(order - 4.0) <= 0.3


def _solve_gauss_by_sharp(s, x0, eta):
    """The nodes of ``solve_gauss`` by four ``sharp`` calls per interval on
    Python floats: the reference for its compiled step."""
    N = len(eta) - 1
    x = [float(v) for v in x0]
    du = 1.0 / N
    e = -eta
    e_mid = ps.cubic_midpoints(e).tolist()
    e = e.tolist()
    half, sixth = 0.5 * du, du / 6.0
    rows = [x]
    for k in range(N):
        k1 = s.sharp(x, e[k])
        k2 = s.sharp([a + half * b for a, b in zip(x, k1)], e_mid[k])
        k3 = s.sharp([a + half * b for a, b in zip(x, k2)], e_mid[k])
        k4 = s.sharp([a + du * b for a, b in zip(x, k3)], e[k + 1])
        x = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        rows.append(x)
    return np.array(rows)


_PHI = ["x1*x2", "x2", "sin(x1)+2", "x1^3 - x2", "(x1-0.5)*(x1-0.5-0.001)", "exp(x1) - 2", "0"]
_STEPPED = {
    "constant": lambda: po.constant_structure([[0.0, 2.0, -0.5], [-2.0, 0.0, 1.5], [0.5, -1.5, 0.0]]),
    **{f"two_domain[{src}]": (lambda src=src: _phi_structure(src)) for src in _PHI},
    **{f"kk_{name}": (lambda name=name: ld.kk_structure(ld.builtin_spec(name)))
       for name in ("su2", "so3", "heisenberg3")},
    **{f"rot_invariant3[{src}]": (lambda src=src: po.rot_invariant3(ex.parse(src, ["R"])))
       for src in ("R/(1+(R-1)^3)", "1/(1+R^2)")},
}


@pytest.mark.parametrize("name", list(_STEPPED))
def test_solve_gauss_gives_the_bits_of_four_sharp_calls_per_interval(name):
    s = _STEPPED[name]()
    rng = np.random.default_rng(21)
    x0 = rng.uniform(0.5, 1.0, s.n) * rng.choice([-1.0, 1.0], s.n)
    eta = _smooth_eta(200, s.n, seed=21)
    assert np.array_equal(ps.solve_gauss(s, x0, eta).X, _solve_gauss_by_sharp(s, x0, eta))


def test_solve_gauss_compiles_its_step_once(monkeypatch):
    s, eta = _phi_structure("sin(x1)+2"), _smooth_eta(20, 2)
    built, program = [], ex.Program
    monkeypatch.setattr(ex, "Program", lambda *a: built.append(a) or program(*a))
    ps.solve_gauss(s, [1.0, 0.5], eta)
    assert len(built) == 1
    ps.solve_gauss(s, [0.3, -0.2], eta)
    assert len(built) == 1


def _half_plane(alpha_limit=math.inf):
    """Constant structure on x1 < 1.45, whose alpha^12 is undefined from
    x1 >= alpha_limit."""
    src = "1" if alpha_limit == math.inf else f"1 + 0*log({alpha_limit!r} - x1)"
    return po.PoissonStructure(n=2, bivector=[ex.parse(src, ["x1", "x2"])],
                               in_domain=lambda x: np.asarray(x)[..., 0] < 1.45,
                               name="half_plane")


@pytest.mark.parametrize("alpha_limit", [math.inf, 1.55])
def test_solve_gauss_names_the_first_node_outside_the_domain(alpha_limit):
    # X1 = 1 + u on 10 intervals; node 5 is the first with X1 >= 1.45, and
    # with alpha_limit the step after it fails, which must not hide that
    eta = np.tile([0.0, -1.0], (11, 1))
    with pytest.raises(po.DomainError, match=r"^trajectory exits domain at node 5$"):
        ps.solve_gauss(_half_plane(alpha_limit), [1.0, 0.0], eta)
    m = ps.solve_gauss(_half_plane(alpha_limit), [1.0, 0.0], 0.4 * eta)
    assert np.allclose(m.X, [[1.0 + 0.04 * k, 0.0] for k in range(11)], rtol=0, atol=1e-15)


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
    s = po.PoissonStructure(n=3, bivector=good.bivector,
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
    assert ps.hamiltonian_check(s, m, beta, trials=10) < 4e-6  # reads 2.559e-6


def test_equivariance_of_moment_map():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(800, 2, seed=7))
    beta = ps.GaugeField.parse(
        ["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)"], 2)
    gamma = ps.GaugeField.parse(
        ["0.3*u*(1-u)*x1", "0.2*sin(3.141592653589793*u)*x1*x2"], 2)
    assert ps.equivariance_defect(s, m, beta, gamma) < 3e-9  # reads 1.662e-9


# bounds on hamiltonian_check (5 trials) and equivariance_defect at N = 600,
# just above their readings: 1.759e-6 for both, and 9.11e-8 and 1.140e-7
_MOMENT_MAP_BOUNDS = {"kk_su2": (2e-6, 1e-7), "rot_invariant3[R/(1+(R-1)^3)]": (2e-6, 1.2e-7)}


@pytest.mark.parametrize("name", list(_STEPPED))
def test_dH_is_the_differential_of_the_discrete_hamiltonian(name):
    s = _STEPPED[name]()
    n, N = s.n, 600
    u = np.linspace(0.0, 1.0, N + 1)
    # an off-shell path: X and eta are drawn independently
    X = (np.array([1.0, 0.8, 0.6][:n]) + np.outer(np.sin(PI * u), [0.3, -0.2, 0.1][:n])
         + np.outer(u, [0.2, 0.1, -0.15][:n]))
    m = ps.DiscretizedMorphism(n=n, X=X, eta=_smooth_eta(N, n, seed=8))
    beta = ps.GaugeField.parse(["0.2*u*(1-u)*x2", "0.3*sin(3.141592653589793*u)",
                                "0.1*u*(1-u)*x1*x3"][:n], n)
    gamma = ps.GaugeField.parse(["0.3*u*(1-u)*x1", "0.2*sin(3.141592653589793*u)*x1*x2",
                                 "0.2*sin(3.141592653589793*u)*x3"][:n], n)
    rng, h = np.random.default_rng(9), 1e-6
    for _ in range(3):
        zeta = ps._random_smooth_tangent(rng, N, n)
        moved = [ps.DiscretizedMorphism(n=n, X=m.X + t * zeta.dX, eta=m.eta + t * zeta.dEta)
                 for t in (h, -h)]
        central = (ps.hamiltonian(s, moved[0], beta) - ps.hamiltonian(s, moved[1], beta)) / (2 * h)
        exact = ps._dH(s, m, beta, zeta)
        assert abs(exact - central) <= 1e-9 * max(1.0, abs(exact))
    if name in _MOMENT_MAP_BOUNDS:
        dh_bound, equivariance_bound = _MOMENT_MAP_BOUNDS[name]
        assert ps.hamiltonian_check(s, m, beta, trials=5) < dh_bound
        assert ps.equivariance_defect(s, m, beta, gamma) < equivariance_bound


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


# --- the gauge field bound to a grid ------------------------------------

def _direct(exprs, X, u):
    """Values of exprs by ex.evaluate at the rows of X and u (or no u)."""
    p = {f"x{i + 1}": X[:, i] for i in range(X.shape[1])}
    if u is not None:
        p["u"] = u
    return [ex.evaluate(e, p) for e in exprs]


@pytest.mark.parametrize("sources, u", [
    # mixed subtrees, a u-only component, a constant one and a constant partial
    (["0.3*sin(3.141592653589793*u)*x2 + u*(1-u)", "2*u*(1-u)", "exp(u)*x1*x3 - cos(u)"],
     np.linspace(0.0, 1.0, 7)),
    (["x2*x3", "1", "sin(x1)*x3"], None),  # a 1-form
])
def test_bound_gauge_field_matches_direct_evaluation(sources, u):
    beta = ps.GaugeField.parse(sources, 3, validate=False)
    X = np.random.default_rng(13).uniform(-1.5, 1.5, (7, 3))
    b, J, bu = beta.on_grid(u)(X.T)
    assert [np.shape(v) for v in b] == [(7,)] * 3
    exprs = beta.components + sum(beta.dx, ()) + beta.du
    for got, want in zip(b + sum(J, []) + bu, _direct(exprs, X, u)):
        assert np.shape(got) == (7,) and np.array_equal(got, want)
    assert np.array_equal(beta.value(X, u), np.stack(_direct(beta.components, X, u), axis=1))


@pytest.mark.parametrize("source, u, message", [
    ("x1*log(u - 0.5)", np.linspace(0.0, 1.0, 5), "log of nonpositive value"),
    ("x1*u", None, "variable 'u' not bound"),
])
def test_bound_gauge_field_raises_the_domain_error_of_direct_evaluation(source, u, message):
    beta = ps.GaugeField.parse([source, "0"], 2, validate=False)
    X = np.ones((5, 2))
    with pytest.raises(ex.DomainError, match=message):
        _direct(beta.components, X, u)
    with pytest.raises(ex.DomainError, match=message):
        beta.on_grid(u)(X.T)


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _closed_forms(name, X):
    """alpha^{ij} and d_k alpha^{ij} of the structures of
    ``test_gauge_vector_field_matches_the_einsum_formula`` over the rows of
    X, with shapes (m, n, n) and (m, n, n, n), from the closed forms phi
    eps, f^{ij}_k x_k and f(R) eps x."""
    m = len(X)
    if name == "constant":
        return np.broadcast_to(2.0 * _EPS2, (m, 2, 2)), np.zeros((m, 2, 2, 2))
    if name == "two_domain":  # phi = x1*x2
        x1, x2 = X.T
        return (x1 * x2)[:, None, None] * _EPS2, X[:, ::-1, None, None] * _EPS2
    eps = ld.builtin_spec("su2").f  # eps^{ijk}
    base = np.einsum("ijk,mk->mij", eps, X)
    if name == "kirillov_kostant":
        return base, np.broadcast_to(np.transpose(eps, (2, 0, 1)), (m, 3, 3, 3))
    # f(R) = R / q, q = 1 + (R - 1)^3; d_l alpha^{ij} = f'(R) x_l / R eps^{ijk} x_k + f(R) eps^{ijl}
    R = np.linalg.norm(X, axis=1)
    q = 1.0 + (R - 1.0) ** 3
    f, fp = R / q, (q - 3.0 * R * (R - 1.0) ** 2) / q ** 2
    d = ((fp / R)[:, None, None, None] * X[:, :, None, None] * base[:, None]
         + f[:, None, None, None] * np.transpose(eps, (2, 0, 1)))
    return f[:, None, None] * base, d


def _einsum_gauge_vector_field(name, m, beta):
    """The gauge vector field by the einsum formula over the closed forms
    of alpha and dalpha and the symbolic partials of beta."""
    def stack(exprs):
        return np.stack([np.broadcast_to(v, (m.N + 1,)) for v in _direct(exprs, m.X, m.u)],
                        axis=-1)

    b, bu = stack(beta.components), stack(beta.du)
    Jb = np.stack([stack(row) for row in beta.dx], axis=1)  # Jb[m, i, j] = d beta_i / d x_j
    a, d = _closed_forms(name, m.X)
    Xp = ps.path_derivative(m.X)
    C = Xp + np.einsum("mij,mj->mi", a, m.eta)
    dX = -np.einsum("mij,mj->mi", a, b)
    dEta = (bu + np.einsum("mij,mj->mi", Jb, Xp) + np.einsum("mijk,mj,mk->mi", d, m.eta, b)
            - np.einsum("mj,mji->mi", C, Jb))
    return dX, dEta


@pytest.mark.parametrize("name", ["two_domain", "kirillov_kostant", "rot_invariant3", "constant"])
def test_gauge_vector_field_matches_the_einsum_formula(name):
    s = {
        "two_domain": _phi_structure(),
        "kirillov_kostant": po.kirillov_kostant(ld.builtin_spec("su2").f),
        "rot_invariant3": po.rot_invariant3(ex.parse("R/(1+(R-1)^3)", ["R"])),
        "constant": po.constant_structure([[0.0, 2.0], [-2.0, 0.0]]),
    }[name]
    N = 60
    u = np.linspace(0.0, 1.0, N + 1)
    if s.n == 2:
        X = np.stack([1.0 + 0.3 * np.sin(PI * u), 1.0 + 0.2 * u], axis=1)
        sources = ["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)*x1^2"]
    else:
        X = np.stack([0.8 + 0.1 * u, 0.3 * np.sin(3 * u), 0.5 - 0.2 * u * u], axis=1)
        sources = ["u*(1-u)*x2*x3", "0.5*sin(3.141592653589793*u)", "u*(1-u)*cos(x1)"]
    m = ps.DiscretizedMorphism(n=s.n, X=X, eta=_smooth_eta(N, s.n, seed=14))
    beta = ps.GaugeField.parse(sources, s.n)
    v = ps.gauge_vector_field(s, m, beta)
    for got, want in zip((v.dX, v.dEta), _einsum_gauge_vector_field(name, m, beta)):
        assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_gauge_flow_is_fourth_order_in_its_steps():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 0.8], _smooth_eta(100, 2, seed=15))
    beta = ps.GaugeField.parse(["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)*x1"], 2)
    ends = [ps.gauge_flow(s, m, beta, s_steps=k, check_residual=False).X for k in (4, 8, 16)]
    order = math.log2(np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2])))
    assert abs(order - 4.0) <= 0.3


@pytest.mark.parametrize("steps", [0, -3])
def test_gauge_flow_refuses_fewer_than_one_step(steps):
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(50, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    with pytest.raises(ValueError, match=f"^gauge_flow needs at least 1 step, got {steps}$"):
        ps.gauge_flow(s, m, beta, s_steps=steps)


def test_hamiltonian_check_refuses_zero_trials():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(50, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    with pytest.raises(ValueError, match="^hamiltonian_check needs at least 1 trial, got 0$"):
        ps.hamiltonian_check(s, m, beta, trials=0)


# --- the constraint-solution gate ----------------------------------------

def _line(speed, offset):
    """X = (1 + speed u, 1) on 11 nodes with eta chosen so that
    X' + alpha eta = (offset, 0) under the constant structure eps."""
    u = np.linspace(0.0, 1.0, 11)
    X = np.stack([1.0 + speed * u, np.ones_like(u)], axis=1)
    eta = np.tile([0.0, offset - speed], (11, 1))  # alpha eta = (eta_2, -eta_1)
    return ps.DiscretizedMorphism(n=2, X=X, eta=eta)


@pytest.mark.parametrize("speed, offset, passes", [
    (0.5, 0.9e-5, True), (0.5, 1.1e-5, False),   # slow paths: the bound is tol
    (20.0, 1.9e-4, True), (20.0, 2.1e-4, False),  # tol times the speed
])
def test_require_solution_scales_the_bound_with_the_speed(speed, offset, passes):
    s = po.constant_structure([[0.0, 1.0], [-1.0, 0.0]])
    m = _line(speed, offset)
    assert ps.gauss_residual(s, m) == pytest.approx(offset, rel=1e-6)
    if passes:
        ps.require_solution(s, m, 1e-5)
        return
    with pytest.raises(ValueError, match=rf"^not a constraint solution \(residual {offset:g}\)$"):
        ps.require_solution(s, m, 1e-5)
    beta = ps.GaugeField.parse(["u*(1-u)", "0"], 2)
    with pytest.raises(ValueError, match=r"^gauge_flow requires a constraint solution "
                                         r"\(residual above 1e-05\)$"):
        ps.gauge_flow(s, m, beta)


def test_the_gate_differentiates_the_path_once(monkeypatch):
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(50, 2, seed=16))
    calls = []
    original = ps.path_derivative
    monkeypatch.setattr(ps, "path_derivative", lambda Y: calls.append(Y) or original(Y))
    residual, passed = ps.check_solution(s, m, 1e-2)
    assert len(calls) == 1 and passed and residual == ps.gauss_residual(s, m)
