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


def _components(s, X):
    """alpha^{ij} and d_k alpha^{ij} at one point X, shape (n,), or at the
    rows of a batch X, shape (m, n), as arrays of shapes X.shape[:-1] +
    (n, n) and + (n, n, n): sharp(x, e_j)[i] and dsharp(x, e_i, e_j)[k]
    for the basis covectors, one call each."""
    X = np.asarray(X, dtype=float)
    basis, shape = np.eye(s.n), X.shape[:-1]
    a = [[np.broadcast_to(c, shape) for c in s.sharp(X.T, e)] for e in basis]  # a[j][i]
    d = [[[np.broadcast_to(c, shape) for c in s.dsharp(X.T, e, b)] for b in basis]
         for e in basis]  # d[i][j][k]
    return (np.moveaxis(np.array(a), (1, 0), (-2, -1)),
            np.moveaxis(np.array(d), (2, 0, 1), (-3, -2, -1)))


def test_two_domain_values_and_gradient():
    s = po.two_domain(ex.parse("x1*x2", ["x1", "x2"]))
    assert s.sharp([2.0, 3.0], [0.0, 1.0]) == (6.0, 0.0)  # (alpha^{12}, alpha^{22})
    assert s.sharp([2.0, 3.0], [1.0, 0.0]) == (0.0, -6.0)  # (alpha^{11}, alpha^{21})
    assert s.dsharp([2.0, 3.0], [1.0, 0.0], [0.0, 1.0]) == (3.0, 2.0)  # d_k alpha^{12}


def _assert_batch_matches_points(s, X):
    """sharp and dsharp of a batch, with the basis covectors, equal the
    stacks of their values at each point."""
    points = [_components(s, x) for x in X]
    for r, (batch, rank) in enumerate(zip(_components(s, X), (2, 3))):
        stack = np.stack([p[r] for p in points])
        assert batch.shape == stack.shape == (len(X),) + (s.n,) * rank
        assert np.allclose(batch, stack, rtol=1e-15, atol=0)


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
    assert len(s.sharp(X[0], X[1])) == len(s.dsharp(X[0], X[1], X[2])) == s.n
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
    names = ["x1", "x2", "x3"]
    s = po.PoissonStructure(n=3, bivector=[ex.parse(src, names) for src in ("x3*x1", "x2", "1")],
                            in_domain=lambda x: True, name="broken")
    assert po.jacobi_residual(s, [1.0, 1.0, 1.0]) > 0.1


def test_rot_invariant3_matches_closed_form():
    s = po.rot_invariant3(ex.parse("R", ["R"]))
    x = np.array([1.0, 2.0, 2.0])  # |x| = 3
    a = _components(s, x)[0]
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
    d = _components(s, x0)[1]
    h = 1e-6
    for k in range(3):
        dx = np.zeros(3)
        dx[k] = h
        fd = (_components(s, x0 + dx)[0] - _components(s, x0 - dx)[0]) / (2 * h)
        assert np.max(np.abs(d[k] - fd)) <= 1e-8


# --- Koszul bracket ------------------------------------------------------

def test_koszul_bracket_su2_basis_forms():
    # for the linear su(2)* structure, [dx1, dx2] = dx3
    s = po.kirillov_kostant(_su2_constants())
    beta = ps.GaugeField.parse(["1", "0", "0"], 3)
    gamma = ps.GaugeField.parse(["0", "1", "0"], 3)
    rng = np.random.default_rng(2)
    br = ps.koszul_bracket_values(s, beta, gamma, rng.standard_normal((20, 3)))
    for row in br:
        assert np.allclose(row, [0.0, 0.0, 1.0], atol=1e-13)


def test_koszul_bracket_antisymmetry_and_leibniz_input():
    s = po.two_domain(ex.parse("x1*x2", ["x1", "x2"]))
    beta = ps.GaugeField.parse(["x2", "x1^2"], 2)
    gamma = ps.GaugeField.parse(["sin(x1)", "x2"], 2)
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
    beta = ps.GaugeField(tuple(df), 2)
    gamma = ps.GaugeField(tuple(dg), 2)
    phi = ex.parse("x1*x2", names)
    bracket_fg = ex.Mul(phi, ex.Sub(ex.Mul(df[0], dg[1]),
                                    ex.Mul(df[1], dg[0])))
    oracle = [ex.differentiate(bracket_fg, v) for v in names]
    rng = np.random.default_rng(4)
    X = rng.uniform(-2, 2, size=(20, 2))
    for x, br in zip(X, ps.koszul_bracket_values(s, beta, gamma, X)):
        want = [ex.evaluate(o, {"x1": x[0], "x2": x[1]}) for o in oracle]
        assert np.allclose(br, want, atol=1e-11)


def test_batch_evaluators_are_not_constructor_options():
    s = po.constant_structure([[0.0, 1.0], [-1.0, 0.0]])
    assert s.alpha is s.dalpha is s.alpha_at is s.dalpha_at is None
    assert s.d2alpha is s.alpha_batch is s.dalpha_batch is None
    with pytest.raises(TypeError):
        po.PoissonStructure(n=2, bivector=s.bivector, in_domain=s.in_domain,
                            alpha_batch=s.sharp)


# --- sharp ---------------------------------------------------------------

_A3 = [[0.0, 2.0, -0.5], [-2.0, 0.0, 1.5], [0.5, -1.5, 0.0]]
_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _sharp_structures():
    return {
        "constant": po.constant_structure(_A3),
        "two_domain": po.two_domain(ex.parse("x1*x2 + sin(x1)", ["x1", "x2"])),
        "kirillov_kostant": po.kirillov_kostant(_su2_constants()),
        "rot_invariant3": po.rot_invariant3(ex.parse("R/(1+(R-1)^3)", ["R"])),
    }


def _closed_forms(name, X):
    """alpha^{ij} and d_k alpha^{ij} of ``_sharp_structures()[name]`` over
    the rows of X, with shapes (m, n, n) and (m, n, n, n), from the closed
    forms phi eps, f^{ij}_k x_k and f(R) eps x."""
    m = len(X)
    if name == "constant":
        return np.broadcast_to(_A3, (m, 3, 3)), np.zeros((m, 3, 3, 3))
    if name == "two_domain":
        x1, x2 = X.T
        phi, grad = x1 * x2 + np.sin(x1), np.stack([x2 + np.cos(x1), x1], axis=1)
        return phi[:, None, None] * _EPS2, grad[:, :, None, None] * _EPS2
    eps = _su2_constants()
    base = np.einsum("ijk,mk->mij", eps, X)  # eps^{ijk} x_k
    if name == "kirillov_kostant":
        return base, np.broadcast_to(np.transpose(eps, (2, 0, 1)), (m, 3, 3, 3))
    # f(R) = R / q, q = 1 + (R - 1)^3; d_l alpha^{ij} = f'(R) x_l / R eps^{ijk} x_k + f(R) eps^{ijl}
    R = np.linalg.norm(X, axis=1)
    q = 1.0 + (R - 1.0) ** 3
    f, fp = R / q, (q - 3.0 * R * (R - 1.0) ** 2) / q ** 2
    d = ((fp / R)[:, None, None, None] * X[:, :, None, None] * base[:, None]
         + f[:, None, None, None] * np.transpose(eps, (2, 0, 1)))
    return f[:, None, None] * base, d


@pytest.mark.parametrize("name", list(_sharp_structures()))
def test_sharp_is_alpha_times_the_covector(name):
    s = _sharp_structures()[name]
    rng = np.random.default_rng(11)
    X = rng.uniform(0.5, 1.5, (6, s.n)) * rng.choice([-1.0, 1.0], (6, s.n))
    E = rng.standard_normal((6, s.n))
    a = _closed_forms(name, X)[0]
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


@pytest.mark.parametrize("name", list(_sharp_structures()))
def test_dsharp_is_dalpha_contracted_with_both_covectors(name):
    s = _sharp_structures()[name]
    rng = np.random.default_rng(12)
    X = rng.uniform(0.5, 1.5, (6, s.n)) * rng.choice([-1.0, 1.0], (6, s.n))
    E, B = rng.standard_normal((2, 6, s.n))
    d = _closed_forms(name, X)[1]
    want = np.einsum("mijk,mj,mk->mi", d, E, B)
    scale = np.einsum("mijk,mj,mk->mi", np.abs(d), np.abs(E), np.abs(B))  # bounds the rounding
    batch = s.dsharp(X.T, E.T, B.T)
    assert len(batch) == s.n and all(np.shape(c) == (6,) for c in batch)
    assert np.all(np.abs(np.stack(batch, axis=1) - want) <= 4e-15 * scale)
    for x, e, b, w, sc in zip(X, E, B, want, scale):
        point = s.dsharp(x.tolist(), e.tolist(), b.tolist())
        assert type(point) is tuple and all(type(c) is float for c in point)
        assert np.all(np.abs(np.array(point) - w) <= 4e-15 * sc)


# alpha^{ij} and d_k alpha^{ij} for i < j, as the constructors' own closed
# forms gave them before the bivector became the one closed form, at the rows
# of X: name -> (X, [alpha per row], [[d_k alpha per k] per row]); they are
# sharp(x, e_j)[i] and dsharp(x, e_i, e_j)[k] for the basis covectors
_RECORDED = {
    "constant": ([[0.7, -1.3, 0.2], [-2.1, 0.4, 1.1]],
                 [[2.0, -0.5, 1.5], [2.0, -0.5, 1.5]],
                 [[[0.0, 0.0, 0.0]] * 3] * 2),
    "two_domain": ([[0.7, -1.3], [-2.1, 0.4], [1.5, 2.0]],
                   [[-0.2657823127623089], [-1.7032093666488737], [3.9974949866040546]],
                   [[[-0.5351578127155115], [0.7]], [[-0.10484610459985755], [-2.1]],
                    [[2.070737201667703], [1.5]]]),
    "kirillov_kostant": ([[0.7, -1.3, 0.2], [-2.1, 0.4, 1.1]],
                         [[0.2, 1.3, 0.7], [1.1, -0.4, -2.1]],
                         [[[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]]] * 2),
    "rot_invariant3": ([[0.8, 0.3, -0.5], [-0.6, 1.1, 0.4]],
                       [[-0.49497524934359155, -0.2969851496061549, 0.7919603989497466],
                        [0.5101285587846226, -1.4028535366577122, -0.7651928381769338]],
                       [[[-0.4039402125762619, -0.24236412754575712, 1.6362548388092022],
                         [-0.1514775797160982, -1.080837046516842, 0.24236412754575715],
                         [1.2424131315473468, 0.1514775797160982, -0.4039402125762619]],
                        [[-0.10963190681401694, 0.3014877437385466, 1.4397692571825818],
                         [0.2009918291590311, -1.828048927148892, -0.30148774373854664],
                         [1.3484093348375676, -0.20099182915903108, -0.10963190681401695]]]),
}


def _antisymmetric(upper, n):
    """The antisymmetric (..., n, n) arrays with entries ``upper`` above
    the diagonal, row by row."""
    out = np.zeros(np.shape(upper)[:-1] + (n, n))
    i, j = np.triu_indices(n, 1)
    out[..., i, j] = upper
    out[..., j, i] = np.negative(upper)
    return out


@pytest.mark.parametrize("name", list(_RECORDED))
def test_sharp_and_dsharp_keep_the_recorded_values(name):
    s = _sharp_structures()[name]
    X, upper_a, upper_d = _RECORDED[name]
    X, want_a, want_d = np.array(X), _antisymmetric(upper_a, s.n), _antisymmetric(upper_d, s.n)
    # rot_invariant3's d_k alpha was f'(R) x / R times eps x plus f(R) eps, in another order
    tol = 1e-15 * np.max(np.abs(want_d)) if name == "rot_invariant3" else 0.0
    a, d = _components(s, X)
    assert np.array_equal(a, want_a) and np.max(np.abs(d - want_d)) <= tol
    basis = np.eye(s.n).tolist()
    for x, wa, wd in zip(X.tolist(), want_a, want_d):
        for j, e in enumerate(basis):
            assert s.sharp(x, e) == tuple(wa[:, j])
            for k, b in enumerate(basis):
                assert np.max(np.abs(np.subtract(s.dsharp(x, e, b), wd[:, j, k]))) <= tol


@pytest.mark.parametrize("name", ["two_domain", "rot_invariant3"])
def test_dsharp_takes_one_expression_call(name, monkeypatch):
    s = _sharp_structures()[name]
    calls = []
    original = ex.evaluate
    monkeypatch.setattr(ex, "evaluate", lambda *a: calls.append(a) or original(*a))
    X = np.array(_RECORDED[name][0])
    for x, e in ((X[0], X[-1]), (X.T, X[::-1].T)):
        calls.clear()
        s.dsharp(x, e, x)
        assert len(calls) == 1


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
    beta, gamma = (ps.GaugeField.parse(f, s.n) for f in forms)
    residual, bracket = _EARLIER[name]
    got = ps.gauss_residual(s, ps.DiscretizedMorphism(n=s.n, X=X, eta=E))
    assert abs(got - residual) <= 1e-14 * residual
    got = ps.koszul_bracket_values(s, beta, gamma, X[::10])
    assert np.max(np.abs(got - bracket)) <= 1e-14 * np.max(np.abs(bracket))
