import numpy as np
import pytest

from psgroupoid import expr as ex
from psgroupoid import pathspace as ps
from psgroupoid import poisson as po


def _su2_constants():
    f = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        f[i, j, k] = 1.0
        f[j, i, k] = -1.0
    return f


def test_constant_structure_jacobi():
    s = po.constant_structure([[0.0, 1.0], [-1.0, 0.0]])
    assert po.jacobi_residual(s, [0.3, -1.2]) == 0.0


def test_constant_structure_rejects_nonantisymmetric():
    with pytest.raises(ValueError):
        po.constant_structure([[0.0, 1.0], [1.0, 0.0]])


def test_two_domain_values_and_gradient():
    s = po.two_domain(ex.parse("x1*x2", ["x1", "x2"]))
    a = s.alpha([2.0, 3.0])
    assert a[0, 1] == 6.0 and a[1, 0] == -6.0
    d = s.dalpha([2.0, 3.0])  # d[k, i, j] = d_k alpha^{ij}
    assert d[0, 0, 1] == 3.0
    assert d[1, 0, 1] == 2.0


def _assert_batch_matches_points(s, X):
    """alpha and dalpha of a batch equal the stacks of their values at
    each point, and alpha_at / dalpha_at equal them too."""
    for evaluate, at, rank in ((s.alpha, s.alpha_at, 2), (s.dalpha, s.dalpha_at, 3)):
        stack = np.stack([evaluate(x) for x in X])
        assert stack.shape == (len(X),) + (s.n,) * rank
        assert np.allclose(evaluate(X), stack, rtol=1e-15, atol=0)
        assert np.allclose(at(X), stack, rtol=1e-15, atol=0)


@pytest.mark.parametrize("src", ["0", "x2", "sin(x1)+2"])
def test_two_domain_batch_with_constant_partials(src):
    s = po.two_domain(ex.parse(src, ["x1", "x2"]))
    _assert_batch_matches_points(s, np.array([[0.3, -1.2], [1.5, 0.7], [-2.0, 0.1]]))


@pytest.mark.parametrize("s", [
    po.constant_structure([[0.0, 1.0], [-1.0, 0.0]]),
    po.kirillov_kostant(_su2_constants()),
], ids=["constant", "kirillov_kostant"])
def test_linear_structures_batch_matches_points(s):
    X = np.random.default_rng(5).standard_normal((4, s.n))
    _assert_batch_matches_points(s, X)
    assert s.alpha(X[0]).shape == (s.n, s.n)
    assert s.in_domain is None


def test_two_domain_jacobi_trivial_in_2d():
    s = po.two_domain(ex.parse("sin(x1)+2", ["x1", "x2"]))
    rng = np.random.default_rng(0)
    for x in rng.uniform(-3, 3, size=(20, 2)):
        assert po.jacobi_residual(s, x) <= 1e-14


def test_kirillov_kostant_su2_jacobi():
    s = po.kirillov_kostant(_su2_constants())
    rng = np.random.default_rng(1)
    for x in rng.standard_normal((50, 3)):
        assert po.jacobi_residual(s, x) <= 1e-13


def test_non_poisson_bivector_detected():
    # alpha^{12} = x3*x1, alpha^{13} = x2, alpha^{23} = 1 fails Jacobi
    def alpha(x):
        return np.array([[0.0, x[2] * x[0], x[1]],
                         [-x[2] * x[0], 0.0, 1.0],
                         [-x[1], -1.0, 0.0]])

    def dalpha(x):
        d = np.zeros((3, 3, 3))
        d[0, 0, 1] = x[2]
        d[2, 0, 1] = x[0]
        d[1, 0, 2] = 1.0
        for k in range(3):
            d[k] = d[k] - d[k].T
        return d

    s = po.PoissonStructure(n=3, alpha=alpha, dalpha=dalpha,
                            in_domain=lambda x: True, name="broken")
    assert po.jacobi_residual(s, [1.0, 1.0, 1.0]) > 0.1


def test_rot_invariant3_matches_closed_form():
    s = po.rot_invariant3(ex.parse("R", ["R"]))
    x = np.array([1.0, 2.0, 2.0])  # |x| = 3
    a = s.alpha(x)
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[j, i, k] = -1.0
    expect = 3.0 * np.einsum("ijk,k->ij", eps, x)
    assert np.allclose(a, expect, atol=1e-14)
    assert po.jacobi_residual(s, x) <= 1e-12
    with pytest.raises(po.DomainError):
        s.check_point([0.0, 0.0, 0.0])


def test_rot_invariant3_batch_with_constant_profile():
    s = po.rot_invariant3(ex.parse("1", ["R"]))
    _assert_batch_matches_points(s, np.array([[0.3, -1.2, 0.5], [1.5, 0.7, -0.2]]))


def test_rot_invariant3_in_domain_on_a_batch_holding_the_origin():
    s = po.rot_invariant3(ex.parse("1", ["R"]), r_min=0.5)
    X = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.3, 0.3, 0.3], [0.0, -0.6, 0.0]])
    inside = s.in_domain(X)
    assert inside.shape == (4,)
    assert inside.tolist() == [bool(s.in_domain(x)) for x in X] == [True, False, True, True]
    assert not s.in_domain([0.0, 0.0, 0.0])


def test_rot_invariant3_gradient_by_finite_difference():
    s = po.rot_invariant3(ex.parse("1/(1+R^2)", ["R"]))
    x0 = np.array([0.6, -0.4, 0.9])
    d = s.dalpha(x0)
    h = 1e-6
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        fd = (s.alpha(x0 + dx) - s.alpha(x0 - dx)) / (2 * h)
        assert np.max(np.abs(d[k] - fd)) <= 1e-8


# --- Koszul bracket ------------------------------------------------------

def test_koszul_bracket_su2_basis_forms():
    # for the linear su(2)* structure, [dx1, dx2] = dx3
    s = po.kirillov_kostant(_su2_constants())
    beta = ps.GaugeField.parse(["1", "0", "0"], 3, validate=False)
    gamma = ps.GaugeField.parse(["0", "1", "0"], 3, validate=False)
    rng = np.random.default_rng(2)
    br = ps.koszul_bracket_values(s, beta, gamma, rng.standard_normal((20, 3)))
    for row in br:
        assert np.allclose(row, [0.0, 0.0, 1.0], atol=1e-13)


def test_koszul_bracket_antisymmetry_and_leibniz_input():
    s = po.two_domain(ex.parse("x1*x2", ["x1", "x2"]))
    beta = ps.GaugeField.parse(["x2", "x1^2"], 2, validate=False)
    gamma = ps.GaugeField.parse(["sin(x1)", "x2"], 2, validate=False)
    rng = np.random.default_rng(3)
    X = rng.uniform(-2, 2, size=(20, 2))
    lhs = ps.koszul_bracket_values(s, beta, gamma, X)
    rhs = ps.koszul_bracket_values(s, gamma, beta, X)
    for left, right in zip(lhs, rhs):
        assert np.allclose(left, -right, atol=1e-12)


def test_koszul_bracket_of_exact_forms_is_exact():
    # [df, dg] = d{f, g} for the bracket {f, g} = phi (d1 f d2 g - d2 f d1 g)
    names = ["x1", "x2"]
    s = po.two_domain(ex.parse("x1*x2", names))
    f = ex.parse("x1^2*x2", names)
    g = ex.parse("sin(x1)+x2", names)
    df = [ex.differentiate(f, v) for v in names]
    dg = [ex.differentiate(g, v) for v in names]
    beta = ps.GaugeField(tuple(df), 2, validate=False)
    gamma = ps.GaugeField(tuple(dg), 2, validate=False)
    phi = ex.parse("x1*x2", names)
    bracket_fg = ex.Mul(phi, ex.Sub(ex.Mul(df[0], dg[1]),
                                    ex.Mul(df[1], dg[0])))
    oracle = [ex.differentiate(bracket_fg, v) for v in names]
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(20, 2))
    for x, br in zip(X, ps.koszul_bracket_values(s, beta, gamma, X)):
        want = [ex.evaluate(o, {"x1": x[0], "x2": x[1]}) for o in oracle]
        assert np.allclose(br, want, atol=1e-11)


def test_batch_entry_points_refuse_point_only_evaluators():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = po.PoissonStructure(n=2, alpha=lambda x: A, dalpha=lambda x: np.zeros((2, 2, 2)),
                            in_domain=lambda x: True, name="point_only")
    X = np.zeros((4, 2))
    with pytest.raises(ValueError, match=r"alpha of point_only returned shape \(2, 2\)"):
        s.alpha_at(X)
    with pytest.raises(ValueError, match=r"dalpha of point_only returned shape \(2, 2, 2\)"):
        s.dalpha_at(X)


def test_batch_evaluators_are_not_constructor_options():
    s = po.constant_structure([[0.0, 1.0], [-1.0, 0.0]])
    assert s.d2alpha is s.alpha_batch is s.dalpha_batch is None
    with pytest.raises(TypeError):
        po.PoissonStructure(n=2, alpha=s.alpha, dalpha=s.dalpha, in_domain=s.in_domain,
                            alpha_batch=s.alpha)


# --- sharp ---------------------------------------------------------------

def _sharp_structures():
    cubic = po.rot_invariant3(ex.parse("R/(1+(R-1)^3)", ["R"]))
    return {
        "constant": po.constant_structure([[0.0, 2.0, -0.5], [-2.0, 0.0, 1.5], [0.5, -1.5, 0.0]]),
        "two_domain": po.two_domain(ex.parse("x1*x2 + sin(x1)", ["x1", "x2"])),
        "kirillov_kostant": po.kirillov_kostant(_su2_constants()),
        "rot_invariant3": cubic,
        "callables": po.PoissonStructure(n=3, alpha=cubic.alpha, dalpha=cubic.dalpha),
    }


@pytest.mark.parametrize("name", list(_sharp_structures()))
def test_sharp_is_alpha_times_the_covector(name):
    s = _sharp_structures()[name]
    rng = np.random.default_rng(11)
    X = rng.uniform(0.5, 1.5, (6, s.n)) * rng.choice([-1.0, 1.0], (6, s.n))
    E = rng.standard_normal((6, s.n))
    a = s.alpha_at(X)
    want = np.einsum("mij,mj->mi", a, E)
    scale = np.einsum("mij,mj->mi", np.abs(a), np.abs(E))  # bounds the rounding
    batch = s.sharp(X.T, E.T)
    assert len(batch) == s.n and all(np.shape(c) == (6,) for c in batch)
    assert np.all(np.abs(np.stack(batch, axis=1) - want) <= 1e-15 * scale)
    for x, e, w, sc in zip(X, E, want, scale):
        point = s.sharp(x.tolist(), e.tolist())
        assert type(point) is tuple and all(type(c) is float for c in point)
        assert np.all(np.abs(np.array(point) - w) <= 1e-15 * sc)


def test_sharp_of_constant_phi_is_an_array_on_a_batch():
    s = po.two_domain(ex.parse("2", ["x1", "x2"]))
    X, E = np.ones((4, 2)), np.arange(8.0).reshape(4, 2)
    assert np.array_equal(np.stack(s.sharp(X.T, E.T), axis=1), 2.0 * E[:, ::-1] * [1, -1])


def test_derived_sharp_refuses_point_only_alpha_on_a_batch():
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    s = po.PoissonStructure(n=2, alpha=lambda x: A, dalpha=lambda x: np.zeros((2, 2, 2)),
                            name="point_only")
    assert s.sharp([3.0, 4.0], [1.0, 2.0]) == (2.0, -1.0)
    with pytest.raises(ValueError, match=r"alpha of point_only returned shape \(2, 2\)"):
        s.sharp(np.zeros((2, 4)), np.zeros((2, 4)))


# Values of the implementation that contracted alpha_at(X) by einsum, on
# fixed off-shell paths (u on 41 nodes) and at every tenth node of X.
_U = np.linspace(0.0, 1.0, 41)
_X2 = np.stack([1.0 + 0.3 * np.sin(np.pi * _U), 1.0 + 0.2 * _U], axis=1)
_E2 = np.stack([0.4 * np.cos(2 * _U), 0.3 - _U * _U], axis=1)
_X3 = np.stack([0.8 + 0.1 * _U, 0.3 * np.sin(3 * _U), 0.5 - 0.2 * _U * _U], axis=1)
_E3 = np.stack([0.2 + _U, np.cos(_U), -0.5 * _U], axis=1)
_EARLIER = {
    "two_domain": (1.828640170896743, [
        [-1.2232442754839328, 3.1585290151921033], [-2.1350937875929574, 4.2448638954658975],
        [-2.4846072909741883, 5.118862666638428], [-2.085436053078001, 5.424678180815769],
        [-0.9398931305807191, 4.918529015192103]]),
    "constant": (2.4042184476949138, [
        [-2.7635465813520725, 6.0], [-2.904226463903706, 7.1909545442950495],
        [-2.831262411585491, 7.920000000000001], [-2.904226463903706, 7.875807358037435],
        [-2.7635465813520725, 7.199999999999999]]),
    "kirillov_kostant": (1.9176160135407139, [
        [-0.10399999999999998, 0.0, -0.2624],
        [-0.09088096243690785, 0.05032054365301308, -0.16906742658869545],
        [-0.06945286199330994, 0.0713487264091921, -0.11336719134000439],
        [-0.051119346377844994, 0.04375345970355893, -0.11320994771825676],
        [-0.032387437371149796, 0.003427338606535324, -0.13361621544888114]]),
    "rot_invariant3": (1.8705835026810755, [
        [-0.14116276424062776, 0.0, -0.27448729161894],
        [-0.12705994144093735, 0.03988532952181756, -0.18812176621237486],
        [-0.0999934586470294, 0.061291069952175814, -0.13009093856316328],
        [-0.0767973995429106, 0.03604393636618697, -0.12322531983918128],
        [-0.05131442243809528, 0.0022882276595506124, -0.13375334579322762]]),
}


@pytest.mark.parametrize("name", list(_EARLIER))
def test_residual_and_koszul_bracket_keep_their_values(name):
    s = {
        "two_domain": po.two_domain(ex.parse("x1*x2", ["x1", "x2"])),
        "constant": po.constant_structure([[0.0, 2.0], [-2.0, 0.0]]),
        "kirillov_kostant": po.kirillov_kostant(_su2_constants()),
        "rot_invariant3": po.rot_invariant3(ex.parse("R/(1+(R-1)^3)", ["R"])),
    }[name]
    X, E = (_X2, _E2) if s.n == 2 else (_X3, _E3)
    forms = (["x2", "x1^2"], ["sin(x1)", "x2"]) if s.n == 2 else \
        (["x2*x3", "x1^2", "cos(x3)"], ["x1", "sin(x2)", "x1*x3"])
    beta, gamma = (ps.GaugeField.parse(f, s.n, validate=False) for f in forms)
    residual, bracket = _EARLIER[name]
    got = ps.gauss_residual(s, ps.DiscretizedMorphism(n=s.n, X=X, eta=E))
    assert abs(got - residual) <= 1e-14 * residual
    got = ps.koszul_bracket_values(s, beta, gamma, X[::10])
    assert np.max(np.abs(got - bracket)) <= 1e-14 * np.max(np.abs(bracket))
