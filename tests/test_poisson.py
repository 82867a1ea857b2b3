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


def test_structure_constants_from_json():
    entries = [(1, 2, 3, 1.0), (2, 3, 1, 1.0), (3, 1, 2, 1.0)]
    f = po.structure_constants_from_json(entries, 3)
    assert np.array_equal(f, _su2_constants())
    with pytest.raises(ValueError):
        po.structure_constants_from_json([(1, 2, 3, 1.0), (2, 1, 3, 1.0)], 3)
    with pytest.raises(ValueError):
        po.structure_constants_from_json([(0, 2, 3, 1.0)], 3)


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
