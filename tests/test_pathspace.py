import gc
import json
import math
import weakref

import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import groupoid2d as g2
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


def _random_smooth_tangent(rng, N, n):
    """Smooth random variation: a constant and four Fourier modes in u."""
    u = np.linspace(0.0, 1.0, N + 1)
    out = []
    for _ in range(2):
        comp = np.zeros((N + 1, n)) + rng.standard_normal(n)
        for k in range(1, 5):
            a, b = rng.standard_normal(n), rng.standard_normal(n)
            comp += np.outer(np.cos(2 * np.pi * k * u), a)
            comp += np.outer(np.sin(2 * np.pi * k * u), b)
        out.append(comp)
    return ps.TangentVector(*out)


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


@pytest.mark.parametrize("n, N", [(2.7, 2), (1, 2.9), (True, 2), (1, False), (1.0, 2), ("1", 2)])
def test_morphism_json_refuses_n_and_N_that_are_not_integers(n, N):
    # int() used to truncate 2.7 and 2.9 to 2 and read true as 1
    text = json.dumps({"n": n, "N": N, "X": [[0.0], [0.5], [1.0]], "etaU": [[0.0], [0.0], [0.0]]})
    with pytest.raises(ValueError, match="n and N must be integers"):
        ps.DiscretizedMorphism.from_json(text)


@pytest.mark.parametrize("structure, beta, gamma", [
    ("two_domain", ["x2", "x1"], ["1", "x1", "x3"]),
    ("su2", ["x2", "x1"], ["1", "x1", "x3"]),
])
def test_koszul_bracket_refuses_gauge_fields_of_another_dimension(structure, beta, gamma):
    # a 3-component gamma on a 2D structure used to return the 2D bracket,
    # and a 2-component beta on su2 to raise IndexError
    s = (po.two_domain(ex.parse("x1*x2", ["x1", "x2"])) if structure == "two_domain"
         else po.kirillov_kostant(ld.builtin_spec("su2").f))
    beta, gamma = ps.GaugeField.parse(beta, 2), ps.GaugeField.parse(gamma, 3)
    for left, right in ((beta, gamma), (gamma, beta)):
        with pytest.raises(ValueError, match="gauge field dimension mismatch"):
            ps.koszul_bracket_values(s, left, right, np.ones((4, s.n)))


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
    built, program, compiled = [], ex.Program, []
    monkeypatch.setattr(ex, "Program", lambda *a: built.append(a) or program(*a))
    monkeypatch.setattr(ex, "compile", lambda source, *a: compiled.append(source) or compile(source, *a),
                        raising=False)
    for x0 in ([1.0, 0.5], [0.3, -0.2]):
        ps.solve_gauss(s, x0, eta)
        # the step and its loop, and no interval form
        assert len(built) == 1
        assert [source.partition("\n")[0] for source in compiled] == ["def run(p):", "def run(x, values, p):"]


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


def _solve_gauss_by_steps(s, x0, eta):
    """``solve_gauss`` on R^2 by one ``ex.evaluate`` of its compiled step
    per interval, the nodes checked against the domain after the last step
    or the first that raises: the nodes up to that step, and the message
    of the DomainError raised, or None."""
    step = ps._gauss_step(s)[1]
    N = len(eta) - 1
    x = s.check_point(x0).tolist()
    du = 1.0 / N
    e = -eta
    e_mid = ps.cubic_midpoints(e).tolist()
    e = e.tolist()
    half, sixth = 0.5 * du, du / 6.0
    names = ["x1", "x2", "a1", "a2", "b1", "b2", "c1", "c2", "du", "half", "sixth"]
    rows = [x]
    try:
        try:
            for k in range(N):
                x = ex.evaluate(step, dict(zip(names, (*x, *e[k], *e_mid[k], *e[k + 1], du, half, sixth))))
                rows.append(x)
        finally:
            ps._check_domain(s, np.array(rows), "trajectory exits domain")
    except ex.DomainError as err:
        return np.array(rows), str(err)
    return np.array(rows), None


def _plane(src):
    """The structure on R^2 with alpha^12 = src, as ``_half_plane``."""
    return po.PoissonStructure(n=2, bivector=[ex.parse(src, ["x1", "x2"])], name="plane")


_NOT_FINITE = "value overflows or is not finite"


# X1' = rate alpha^12 on N intervals from X = (1, 0)
@pytest.mark.parametrize("alpha, rate, N, message, nodes", [
    ("sqrt(x1) + 1", -4.0, 10, "sqrt of negative value", 2),
    # with alpha^12 = 1 the nodes are 1 + k/8, and step 2 has its second stage at 1.3125
    ("1 + 0/(1.3125 - x1)", 1.0, 8, "division by zero", 3),
    ("x1*x1", 100.0, 10, _NOT_FINITE, 3),
    # inf - inf is NaN, and a NaN argument is out of the domain of sqrt
    ("x1*x1*sqrt(x1*x1 - x1*x1 + 1)", 100.0, 10, "sqrt of negative value", 3),
    # X1 grows by about 4e6 a step, and x1^4 overflows to inf from step 14
    ("x1 + 1/x1^4", 1000.0, 20, _NOT_FINITE, 15),
    ("x1 + exp(-x1^4)", 1000.0, 20, _NOT_FINITE, 15),
    (1.55, 1.0, 10, "trajectory exits domain at node 5", 6),  # _half_plane(1.55)
], ids=["sqrt", "pole", "overflow", "overflow-into-sqrt", "infinite-divisor", "exp-of-minus-inf",
        "half-plane"])
def test_solve_gauss_fails_as_one_step_per_interval_does(alpha, rate, N, message, nodes):
    s = _half_plane(alpha) if isinstance(alpha, float) else _plane(alpha)
    x0, eta = [1.0, 0.0], np.tile([0.0, -rate], (N + 1, 1))
    X, want = _solve_gauss_by_steps(s, x0, eta)
    assert want == message and len(X) == nodes  # partway through
    with pytest.raises(ex.DomainError) as got:
        ps.solve_gauss(s, x0, eta)
    assert str(got.value) == want
    assert np.array_equal(ps.solve_gauss(s, x0, 1e-3 * eta).X, _solve_gauss_by_steps(s, x0, 1e-3 * eta)[0])


def _quantum_plane_solution():
    # the solution of flow solve --structure phi2d:x1*x2 --x0 1,1
    # --eta '0.5*u*(1-u);0.25*u*(1-u)' --grid 1000, which keeps x1 in [0.957, 1]
    u = np.linspace(0.0, 1.0, 1001)
    p = g2.Phi2D.parse("x1*x2")
    return p, ps.solve_gauss(p.structure(), [1.0, 1.0], np.outer(u * (1 - u), [0.5, 0.25]))


def test_gauge_field_boundary_validation():
    # construction checks nothing; the flow checks beta on the path's end nodes
    p, m = _quantum_plane_solution()
    for source, u_end in (("x1", 0), ("u*x1", 1)):
        beta = ps.GaugeField.parse([source, "0"], 2)
        with pytest.raises(ValueError, match=f"^gauge field does not vanish at u = {u_end}$"):
            ps.gauge_flow(p.structure(), m, beta)
    ps.gauge_flow(p.structure(), m, ps.GaugeField.parse(["x1*u*(1-u)", "0"], 2))  # fine


@pytest.mark.parametrize("source", ["u*(1-u)*log(x1)", "u*(1-u)*sqrt(x1)"])
def test_gauge_flow_takes_a_beta_defined_only_near_the_path(source):
    # the 50-point check at construction drew x1 < 0 and refused these; the
    # worst move reads 3.9e-9 for log and 1.9e-10 for sqrt
    p, m = _quantum_plane_solution()
    g = g2.invariants(p, m)
    flowed = ps.gauge_flow(p.structure(), m, ps.GaugeField.parse([source, "0"], 2), s_total=0.5)
    moved = g2.invariants(p, flowed)
    assert max(np.max(np.abs(moved.x - g.x)), np.max(np.abs(moved.pi - g.pi))) <= 5e-8
    assert np.max(np.abs(flowed.X - m.X)) > 1e-3


def test_gauge_flow_scales_the_end_bound_with_the_path():
    # at u = 1, sin(pi u) = 1.2e-16, so beta is about 1.2e-12 on this path:
    # over an absolute 1e-12, under 1e-12 max|X|; the end nodes stay put
    s = po.constant_structure(_EPS2)
    m = ps.solve_gauss(s, [1e5, 1e5], _smooth_eta(1000, 2))
    flowed = ps.gauge_flow(s, m, ps.GaugeField.parse(["0.1*sin(3.141592653589793*u)*x2", "0"], 2))
    assert np.array_equal(flowed.X[[0, -1]], m.X[[0, -1]])
    assert np.max(np.abs(flowed.X - m.X)) > 1e3


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
    # the solution X1 = 1 + 0.04 k lies in x1 < 1.45; the flow adds
    # 1.5 u (1 - u) to X1, which puts nodes 4 to 9 outside
    s = _half_plane()
    m = ps.solve_gauss(s, [1.0, 0.0], np.tile([0.0, -0.4], (11, 1)))
    beta = ps.GaugeField.parse(["0", "-1.5*u*(1-u)"], 2)
    with pytest.raises(po.DomainError, match=r"^gauge flow exits domain at node 4$"):
        ps.gauge_flow(s, m, beta)


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
    assert ps.hamiltonian_check(s, m, beta) < 2e-6  # reads 1.371e-6


def test_equivariance_of_moment_map():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(800, 2, seed=7))
    beta = ps.GaugeField.parse(
        ["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)"], 2)
    gamma = ps.GaugeField.parse(
        ["0.3*u*(1-u)*x1", "0.2*sin(3.141592653589793*u)*x1*x2"], 2)
    assert ps.equivariance_defect(s, m, beta, gamma) < 3e-9  # reads 1.662e-9


# bounds on hamiltonian_check and equivariance_defect at N = 600, just
# above their readings: 1.828e-6 for both, and 9.11e-8 and 1.140e-7
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
        zeta = _random_smooth_tangent(rng, N, n)
        moved = [ps.DiscretizedMorphism(n=n, X=m.X + t * zeta.dX, eta=m.eta + t * zeta.dEta)
                 for t in (h, -h)]
        central = (ps.hamiltonian(s, moved[0], beta) - ps.hamiltonian(s, moved[1], beta)) / (2 * h)
        exact = ps._dH(s, m, beta, zeta)
        assert abs(exact - central) <= 1e-9 * max(1.0, abs(exact))
    # omega(xi_beta, zeta) - dH_beta(zeta) less the same defect of the zero
    # structure: the alpha terms cancel to rounding, which hamiltonian_check,
    # dominated by the beta-only part, cannot show
    zero = po.constant_structure(np.zeros((n, n)))
    xi, xi_zero = ps.gauge_vector_field(s, m, beta), ps.gauge_vector_field(zero, m, beta)
    for zeta in ps._basis_tangents(N, n):  # the tangents of hamiltonian_check
        dH = ps._dH(s, m, beta, zeta)
        defect = ps.symplectic_pairing(xi, zeta) - dH
        defect_zero = ps.symplectic_pairing(xi_zero, zeta) - ps._dH(zero, m, beta, zeta)
        assert abs(defect - defect_zero) <= 1e-13 * max(1.0, abs(dH))  # reads <= 1.28e-15
    if name in _MOMENT_MAP_BOUNDS:
        dh_bound, equivariance_bound = _MOMENT_MAP_BOUNDS[name]
        assert ps.hamiltonian_check(s, m, beta) < dh_bound
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


@pytest.mark.parametrize("field, message", [("X", "endpoint mismatch"), ("eta", "eta too large at the junction")])
def test_concatenate_rejects_nan_at_the_junction(field, message):
    # a NaN first node of m2 used to pass both junction checks
    m1 = ps.DiscretizedMorphism(n=2, X=np.zeros((5, 2)), eta=np.zeros((5, 2)))
    arrays = {"X": np.zeros((5, 2)), "eta": np.zeros((5, 2))}
    arrays[field][0] = np.nan
    with pytest.raises(ValueError, match=message):
        ps.concatenate(m1, ps.DiscretizedMorphism(n=2, **arrays))


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


# --- the compiled gauge vector field --------------------------------------

def _direct(exprs, X, u):
    """Values of exprs by ex.evaluate at the rows of X and u (or no u)."""
    p = {f"x{i + 1}": X[:, i] for i in range(X.shape[1])}
    if u is not None:
        p["u"] = u
    return [ex.evaluate(e, p) for e in exprs]


def _partials(beta, X, u):
    """beta, J[i][j] = d beta_i / d x_j and d_u beta at the rows of X and u
    (or no u), each expression by its own ex.evaluate."""
    n = beta.n
    v = _direct(beta.components + sum(beta.dx, ()) + beta.du, X, u)
    return v[:n], [v[n * i:n * (i + 1)] for i in range(1, n + 1)], v[n * (n + 1):]


def _gauge_field_by_four_calls(s, beta, Y, u):
    """(dX; dEta) at Y = (X; eta) from beta's values and partials,
    sharp(X, eta), sharp(X, beta) and dsharp(X, eta, beta), summed in
    Python: the reference for the field's compiled Program."""
    n, X, eta = s.n, Y[:s.n], Y[s.n:]
    Xp = ps.path_derivative(X.T).T
    b, J, bu = _partials(beta, X.T, u)
    C = [xp + a for xp, a in zip(Xp, s.sharp(X, eta))]
    minus_dX, term2 = s.sharp(X, b), s.dsharp(X, eta, b)
    return np.array([-v for v in minus_dX] + [
        bu[i] + sum(a * v for a, v in zip(J[i], Xp)) + term2[i] - sum(c * row[i] for c, row in zip(C, J))
        for i in range(n)])


def _dH_by_hand(s, m, beta, zeta):
    """``ps._dH`` from beta's values and partials, the constraint, sharp and
    dsharp, summed in Python: the reference for its compiled integrand."""
    X, zX = m.X.T, zeta.dX.T
    b, J, _ = _partials(beta, m.X, m.u)
    C, dC = ps._constraint(s, m)[1].T, ps.path_derivative(zeta.dX).T + s.sharp(X, zeta.dEta.T)
    integrand = sum(dC[i] * b[i] + zX[i] * d + C[i] * sum(a * v for a, v in zip(J[i], zX))
                    for i, d in enumerate(s.dsharp(X, b, m.eta.T)))
    return float(ps.path_integral(integrand)[-1])


def _koszul_by_hand(s, beta, gamma, X, u):
    """``ps.koszul_bracket_values`` from the values and partials of beta and
    gamma, dsharp and two sharps, summed in Python."""
    x = X.T
    (b, Jb, _), (g, Jg, _) = _partials(beta, X, u), _partials(gamma, X, u)
    term1, alpha_g, alpha_b = s.dsharp(x, b, g), s.sharp(x, g), s.sharp(x, b)
    return np.stack([term1[i] + sum(a * v for a, v in zip(Jb[i], alpha_g))
                     - sum(a * v for a, v in zip(Jg[i], alpha_b)) for i in range(s.n)], axis=1)


# (beta, gamma, on the grid or at u=None), each cut to the first n components
_BETAS = {
    "u-only-and-constant": (["2*u*(1-u)", "0.5", "exp(u)*x1*x3 - cos(u)"],
                            ["0.3*sin(3.141592653589793*u)*x2 + u*(1-u)", "x1*u", "x3"], True),
    "constant-partial": (["0.2*x1 + u*(1-u)*x2^2", "3*x1 - sin(x2)*u", "x3*u*(1-u) - 0.5*x2"],
                         ["2*u*(1-u)", "0.5", "exp(u)*x1*x3 - cos(u)"], True),
    "1-form": (["x2*x1", "sin(x1)", "x1*x3"], ["x2", "x1^2", "cos(x3)"], False),
}


@pytest.mark.parametrize("beta_name", list(_BETAS))
@pytest.mark.parametrize("name", list(_STEPPED))
def test_compiled_field_dH_and_bracket_keep_the_bits_of_the_evaluator_calls(name, beta_name):
    s = _STEPPED[name]()
    n, N = s.n, 40
    u = np.linspace(0.0, 1.0, N + 1)
    X = (np.array([1.0, 0.8, 0.6][:n]) + np.outer(np.sin(PI * u), [0.3, -0.2, 0.1][:n])
         + np.outer(u, [0.2, 0.1, -0.15][:n]))
    m = ps.DiscretizedMorphism(n=n, X=X, eta=_smooth_eta(N, n, seed=8))  # off shell
    sources, gamma_sources, on_grid = _BETAS[beta_name]
    beta, gamma = ps.GaugeField.parse(sources[:n], n), ps.GaugeField.parse(gamma_sources[:n], n)
    at, Y = (m.u if on_grid else None), np.concatenate([m.X.T, m.eta.T])

    def same_bits(got, want):  # np.array_equal, and zeros of the same sign
        return np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    assert same_bits(ps._gauge_field(s, beta, at)(Y), _gauge_field_by_four_calls(s, beta, Y, at))
    v = ps.gauge_vector_field(s, m, beta)
    assert same_bits(np.concatenate([v.dX.T, v.dEta.T]), _gauge_field_by_four_calls(s, beta, Y, m.u))
    assert same_bits(beta.value(m.X, at), np.stack(_direct(beta.components, m.X, at), axis=1))
    for zeta in (_random_smooth_tangent(np.random.default_rng(k), N, n) for k in range(2)):
        assert same_bits(ps._dH(s, m, beta, zeta), _dH_by_hand(s, m, beta, zeta))
    assert same_bits(ps.koszul_bracket_values(s, beta, gamma, m.X, at), _koszul_by_hand(s, beta, gamma, m.X, at))


def test_the_compiled_sums_start_from_zero_as_pythons_sum_does():
    # 0 + (-0.0) is 0.0: where every term of a sum is a zero, the sign of the
    # result shows whether the sum started from 0
    u = np.linspace(0.0, 1.0, 5)
    s, beta = _phi_structure(), ps.GaugeField.parse(["-x2*u*u", "-x2*u*u"], 2)
    Y = np.concatenate([np.outer([-1.0, 0.5], 1.0 + u), np.zeros((2, 5))])
    got, want = ps._gauge_field(s, beta, u)(Y), _gauge_field_by_four_calls(s, beta, Y, u)
    assert np.array_equal(np.signbit(got), np.signbit(want)) and want[3, 0] == 0.0 and not np.signbit(want[3, 0])
    s, zero = _phi_structure("x2"), ps.GaugeField.parse(["0", "0"], 2)
    m = ps.DiscretizedMorphism(n=2, X=np.outer(1.0 + u, [-1.0, -1.0]), eta=np.zeros((5, 2)))
    zeta = ps.TangentVector(np.outer(u, [-1.0, -1.0]), np.zeros((5, 2)))
    got, want = ps._dH(s, m, zero, zeta), _dH_by_hand(s, m, zero, zeta)
    assert got == want == 0.0 and not np.signbit(got) and not np.signbit(want)


def _flat_path(x1, N=8):
    """X = (x1, 1) and eta = (0.3, -0.2) at every node, as (X; eta) and its grid."""
    Y = np.concatenate([np.tile([[x1], [1.0]], N + 1), np.tile([[0.3], [-0.2]], N + 1)])
    return Y, np.linspace(0.0, 1.0, N + 1)


@pytest.mark.parametrize("structure, source, x1, on_grid, message", [
    ("x1*x2", "x1*log(u - 0.5)", 1.0, True, "log of nonpositive value"),
    ("x1*x2", "x1*u", 1.0, False, "variable 'u' not bound"),
    ("x1*x2", "u*(1-u)*sqrt(x1)", -1.0, True, "sqrt of negative value"),
    ("exp(x1)", "u*(1-u)*x2", 800.0, True, "value overflows or is not finite"),
], ids=["log-of-u", "unbound-u", "sqrt", "overflowing-structure"])
def test_gauge_field_raises_the_domain_error_of_the_evaluator_calls(structure, source, x1, on_grid, message):
    s, beta = _plane(structure), ps.GaugeField.parse([source, "0"], 2)
    Y, u = _flat_path(x1)
    at = u if on_grid else None
    with pytest.raises(ex.DomainError, match=f"^{message}$"):
        _gauge_field_by_four_calls(s, beta, Y, at)
    with pytest.raises(ex.DomainError, match=f"^{message}$"):
        ps._gauge_field(s, beta, at)(Y)


def test_gauge_field_compiles_once_per_structure_and_beta(monkeypatch):
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=16))
    beta = ps.GaugeField.parse(["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)*x1"], 2)
    ps.gauss_residual(s, m)  # compiles sharp
    built, program, compiled, evaluated, evaluate = [], ex.Program, [], [], ex.evaluate
    monkeypatch.setattr(ex, "Program", lambda *a: built.append(a) or program(*a))
    monkeypatch.setattr(ex, "compile", lambda source, *a: compiled.append(source) or compile(source, *a),
                        raising=False)
    ps.gauge_flow(s, m, beta, s_total=0.5)
    assert len(built) == len(compiled) == 1  # the field
    ps.gauge_flow(s, m, beta, s_total=0.5)
    ps.hamiltonian_check(s, m, beta)
    assert len(built) == len(compiled) == 2  # and the integrand of dH
    field, Y = ps._gauge_field(s, beta, m.u), np.concatenate([m.X.T, m.eta.T])
    monkeypatch.setattr(ex, "evaluate", lambda *a: evaluated.append(a) or evaluate(*a))
    field(Y)
    assert len(evaluated) == 1 and len(built) == 2
    # the cache keeps neither the gauge field nor the structure alive
    monkeypatch.undo()
    beta_ref, s_ref, cache = weakref.ref(beta), weakref.ref(s), weakref.ref(beta._programs)
    assert list(cache()) == [s]
    del s, m
    gc.collect()
    assert s_ref() is None and len(cache()) == 0
    del beta
    gc.collect()
    assert beta_ref() is None and cache() is None


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


def _gauge_flow_by_steps(s, m, beta, s_total, steps):
    """X and eta after ``steps`` equal RK4 steps of the gauge flow, on X and
    eta apart, each stage one ``gauge_vector_field``: the fixed-step
    reference for the step counts ``gauge_flow`` chooses."""
    def field(X, eta):
        v = ps.gauge_vector_field(s, ps.DiscretizedMorphism(n=m.n, X=X, eta=eta), beta)
        return v.dX, v.dEta

    h, X, eta = s_total / steps, m.X, m.eta
    for _ in range(steps):
        k1x, k1e = field(X, eta)
        k2x, k2e = field(X + 0.5 * h * k1x, eta + 0.5 * h * k1e)
        k3x, k3e = field(X + 0.5 * h * k2x, eta + 0.5 * h * k2e)
        k4x, k4e = field(X + h * k3x, eta + h * k3e)
        X = X + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
        eta = eta + (h / 6.0) * (k1e + 2 * k2e + 2 * k3e + k4e)
    return X, eta


def _flow_cases():
    """(structure, solution, gauge field, s_total): criterion 6's path and
    beta, and a path of su2."""
    qp = g2.Phi2D.parse("x1*x2")
    su2 = ld.kk_structure(ld.builtin_spec("su2"))
    return [
        (qp.structure(), g2.embed(qp, g2.GroupoidPoint2D(np.array([1.0, 1.0]), np.array([0.5, 0.25])),
                                  N=2000),
         ps.GaugeField.parse(["0.1*sin(3.141592653589793*u)*x2", "0.05*u*(1-u)*x1"], 2), 0.5),
        (su2, ps.solve_gauss(su2, [0.3, 0.2, 0.5], _smooth_eta(1000, 3, seed=17)),
         ps.GaugeField.parse(["u*(1-u)*x2*x3", "0.5*sin(3.141592653589793*u)", "u*(1-u)*x1"], 3),
         1.0),
    ]


@pytest.mark.parametrize("case", [0, 1])
def test_gauge_flow_at_zero_tolerance_gives_the_bits_of_64_fixed_steps(case, monkeypatch):
    s, m, beta, s_total = _flow_cases()[case]
    monkeypatch.setattr(ps, "FLOW_TOL", 0.0)
    flowed = ps.gauge_flow(s, m, beta, s_total=s_total)
    X, eta = _gauge_flow_by_steps(s, m, beta, s_total, 64)
    assert np.array_equal(flowed.X, X) and np.array_equal(flowed.eta, eta)


@pytest.mark.parametrize("case", [0, 1])
def test_gauge_flow_agrees_with_256_fixed_steps(case):
    s, m, beta, s_total = _flow_cases()[case]
    flowed = ps.gauge_flow(s, m, beta, s_total=s_total)
    X, eta = _gauge_flow_by_steps(s, m, beta, s_total, 256)
    scale = 1.0 + max(np.max(np.abs(X)), np.max(np.abs(eta)))
    assert max(np.max(np.abs(flowed.X - X)), np.max(np.abs(flowed.eta - eta))) <= 1e-10 * scale


def test_gauge_flow_is_fourth_order_in_its_steps(monkeypatch):
    # FLOW_MAX_STEPS = k with FLOW_TOL = 0 is the k-step flow
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 0.8], _smooth_eta(1000, 2, seed=15))
    beta = ps.GaugeField.parse(["0.2*sin(3.141592653589793*u)*x2", "0.1*u*(1-u)*x1"], 2)
    monkeypatch.setattr(ps, "FLOW_TOL", 0.0)
    ends = []
    for k in (4, 8, 16):
        monkeypatch.setattr(ps, "FLOW_MAX_STEPS", k)
        ends.append(ps.gauge_flow(s, m, beta).X)
    order = math.log2(np.max(np.abs(ends[0] - ends[1])) / np.max(np.abs(ends[1] - ends[2])))
    assert abs(order - 4.0) <= 0.3


def test_gauge_flow_skips_a_coarse_flow_out_of_an_expression_domain():
    # alpha^12 = 1 + 0*log(1.55 - x1) and dX1 = -80 u (1 - u) (x1 - 1.2): the
    # flow keeps X1 within [1, 1.4], the one-step flow's stages do not
    s = _half_plane(1.55)
    m = ps.solve_gauss(s, [1.0, 0.0], np.tile([0.0, -0.4], (11, 1)))
    beta = ps.GaugeField.parse(["0", "80*u*(1-u)*(x1 - 1.2)"], 2)
    with pytest.raises(po.DomainError, match="log of nonpositive value"):
        _gauge_flow_by_steps(s, m, beta, 1.0, 1)
    flowed = ps.gauge_flow(s, m, beta)  # no two flows agree, so it takes 64 steps
    X, eta = _gauge_flow_by_steps(s, m, beta, 1.0, 64)
    assert np.array_equal(flowed.X, X) and np.array_equal(flowed.eta, eta)


@pytest.mark.parametrize("steps", [0, -3])
def test_gauge_flow_refuses_fewer_than_one_step(steps, monkeypatch):
    # FLOW_MAX_STEPS = 0 used to end in an UnboundLocalError, -3 to return
    # the 2-step flow
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    monkeypatch.setattr(ps, "FLOW_MAX_STEPS", steps)
    with pytest.raises(ValueError, match=f"^gauge_flow needs at least 1 step, got {steps}$"):
        ps.gauge_flow(s, m, beta)


def test_gauge_flow_refuses_a_step_cap_off_the_powers_of_two(monkeypatch):
    # the doubling 1, 2, 4, ... never meets 48: a flow that agreed with no
    # coarser one used to stop at 32 steps, short of the cap
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    monkeypatch.setattr(ps, "FLOW_MAX_STEPS", 48)
    with pytest.raises(ValueError, match="^gauge_flow needs a power of two for FLOW_MAX_STEPS, got 48$"):
        ps.gauge_flow(s, m, beta)


@pytest.mark.parametrize("s_total", [math.inf, -math.inf, math.nan])
def test_gauge_flow_refuses_a_time_that_is_not_finite(s_total):
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(50, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    with pytest.raises(ValueError, match=f"^gauge_flow needs a finite s_total, got {s_total}$"):
        ps.gauge_flow(s, m, beta, s_total=s_total)


def test_gauge_flow_runs_for_zero_and_negative_time():
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(1000, 2, seed=16))
    beta = ps.GaugeField.parse(["u*(1-u)*x2", "0"], 2)
    still = ps.gauge_flow(s, m, beta, s_total=0.0)
    assert np.array_equal(still.X, m.X) and np.array_equal(still.eta, m.eta)
    back = ps.gauge_flow(s, ps.gauge_flow(s, m, beta, s_total=0.3), beta, s_total=-0.3)
    assert np.max(np.abs(back.X - m.X)) <= 1e-10


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
    with pytest.raises(ValueError, match=rf"^not a constraint solution \(residual {offset:g}\)$"):
        ps.gauge_flow(s, m, beta)


def test_the_gate_differentiates_the_path_once(monkeypatch):
    s = _phi_structure()
    m = ps.solve_gauss(s, [1.0, 1.0], _smooth_eta(50, 2, seed=16))
    calls = []
    original = ps.path_derivative
    monkeypatch.setattr(ps, "path_derivative", lambda Y: calls.append(Y) or original(Y))
    residual, passed = ps.check_solution(s, m, 1e-2)
    assert len(calls) == 1 and passed and residual == ps.gauss_residual(s, m)
