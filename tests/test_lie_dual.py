import dataclasses

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from psgroupoid import expr as ex
from psgroupoid import lie_dual as ld
from psgroupoid import pathspace as ps
from psgroupoid import poisson as po


SPECS = ["su2", "so3", "heisenberg3"]


@pytest.fixture(scope="module")
def su2():
    return ld.builtin_spec("su2")


def _random_group(spec, rng, scale=0.8):
    return spec.project(expm(spec.rho(scale * rng.standard_normal(spec.n))))


@pytest.mark.parametrize("name", ["su2", "so3", "heisenberg3"])
def test_basis_is_a_homomorphism(name):
    spec = ld.builtin_spec(name)
    assert spec.homomorphism_defect() < 1e-13


@pytest.mark.parametrize("name", ["su2", "so3", "heisenberg3"])
def test_convention_contract(name):
    # the contract of the lie_dual docstring, at points drawn with seed 0:
    # (a) geodesic representatives solve the constraint,
    # (b) concatenation maps to the group product in path order
    spec, N = ld.builtin_spec(name), 600
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(spec.n)
    g1 = spec.project(spec.exp(0.7 * rng.standard_normal(spec.n)))
    g2 = spec.project(spec.exp(0.7 * rng.standard_normal(spec.n)))
    m1 = ld.from_groupoid(spec, xi, g1, N=N, tapered=True)
    assert ps.gauss_residual(ld.kk_structure(spec), m1) < 1e-4
    m2 = ld.from_groupoid(spec, ld.right_lie(spec, ld.LieGroupoidPoint(xi, g1)),
                          g2, N=N, tapered=True)
    hol = ld.holonomy(spec, ps.concatenate(m1, m2, endpoint_tol=1e-6))
    assert np.max(np.abs(hol - spec.project(g1 @ g2))) < 1e-4


def test_kk_structure_is_poisson(su2):
    s = ld.kk_structure(su2)
    rng = np.random.default_rng(0)
    for x in rng.standard_normal((20, 3)):
        assert po.jacobi_residual(s, x) < 1e-13


def test_quaternion_matrix_algebra():
    q1 = np.array([0.5, 0.5, 0.5, 0.5])
    q2 = np.array([0.0, 1.0, 0.0, 0.0])
    m = ld.quat_to_matrix(q1) @ ld.quat_to_matrix(q2)
    # quaternion product (0.5+0.5i+0.5j+0.5k) * i = -0.5 + 0.5i + 0.5j - 0.5k
    assert np.allclose(ld.matrix_to_quat(m), [-0.5, 0.5, 0.5, -0.5])


def test_holonomy_constant_eta_matches_expm(su2):
    # constant eta: holonomy = exp(eta_hat)
    comps = np.array([0.3, -0.2, 0.5])
    N = 800
    eta = np.tile(comps, (N + 1, 1))
    X = np.tile([1.0, 0.0, 0.0], (N + 1, 1))  # X irrelevant for holonomy
    m = ps.DiscretizedMorphism(n=3, X=X, eta=eta)
    hol = ld.holonomy(su2, m)
    assert np.max(np.abs(hol - expm(su2.rho(comps)))) < 1e-8


def test_holonomy_stays_on_group(su2):
    rng = np.random.default_rng(1)
    u = np.linspace(0, 1, 501)
    eta = np.stack([0.4 * np.sin(np.pi * u * (k + 1)) for k in range(3)],
                   axis=1)
    m = ps.DiscretizedMorphism(n=3, X=np.ones((501, 3)), eta=eta)
    hol = ld.holonomy(su2, m)
    assert abs(np.linalg.norm(ld.matrix_to_quat(hol)) - 1.0) < 1e-12


def test_from_groupoid_roundtrip():
    rng = np.random.default_rng(2)
    for name in SPECS:
        spec = ld.builtin_spec(name)
        s = ld.kk_structure(spec)
        for _ in range(5):
            xi = rng.standard_normal(3)
            g = _random_group(spec, rng, scale=0.5)
            m = ld.from_groupoid(spec, xi, g, N=2000)
            assert ps.gauss_residual(s, m) < 1e-6, name
            back = ld.to_groupoid(spec, m)
            assert np.max(np.abs(back.xi - xi)) < 1e-8, name
            assert np.max(np.abs(back.g - g)) < 1e-8, name


def test_to_groupoid_compiles_once_per_spec(monkeypatch):
    spec = ld.builtin_spec("su2")
    m = ld.from_groupoid(spec, [0.3, -0.2, 0.5], _random_group(spec, np.random.default_rng(3)), N=500)
    ld.to_groupoid(spec, m)
    built, program = [], ex.Program
    monkeypatch.setattr(ex, "Program", lambda *a: built.append(a) or program(*a))
    ld.to_groupoid(spec, m)
    assert built == [] and ld.kk_structure(spec) is ld.kk_structure(spec)


def _ball_stack(rng, count, radius):
    """count vectors in R^3 with norms uniform in [0, radius]."""
    w = rng.standard_normal((count, 3))
    return w * (radius * rng.uniform(0.0, 1.0, count) / np.linalg.norm(w, axis=1))[:, None]


# zero, tiny, unit, near pi, near su2's antipode 2 pi, the bound of the
# exact comparison, large and huge
RADII = [0.0, 1e-9, 1.0, np.pi - 1e-6, 2.0 * np.pi - 1e-6, 10.0, 1e3, 1e6]


def _mp_expm(a, xi=None):
    """exp(a), or the row xi exp(a), by mpmath at 50 digits, rounded to
    floats: a reference independent of the package's formulas."""
    with mpmath.workdps(50):
        e = mpmath.expm(mpmath.matrix(a.tolist()))
        if xi is not None:
            e = mpmath.matrix([list(xi)]) * e
        return np.array(e.tolist(), dtype=float)


def _sphere_stack(rng, count, radius):
    w = rng.standard_normal((count, 3))
    return w * (radius / np.linalg.norm(w, axis=1))[:, None]


def _reference_tol(radius, ref):
    # a few ulps of the result's size up to |w| = 10; past that, the ulp of
    # |w| that hypot may lose turns the angle by |w| ulps
    return (2e-15 if radius <= 10.0 else 4.0 * np.finfo(float).eps * radius) * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("name", SPECS)
def test_exp_matches_mpmath(name, radius):
    spec = ld.builtin_spec(name)
    w = _sphere_stack(np.random.default_rng(20), 3, radius)
    ref = np.array([_mp_expm(spec.rho(x)) for x in w])
    got = spec.exp(w)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= _reference_tol(radius, ref)
    if radius == 0.0:
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("radius", RADII)
@pytest.mark.parametrize("name", SPECS)
def test_transport_matches_mpmath(name, radius):
    spec = ld.builtin_spec(name)
    rng = np.random.default_rng(21)
    s = np.linspace(0.0, 1.0, 5)
    for w in _sphere_stack(rng, 2, radius):
        xi = rng.standard_normal(3)
        ad = np.einsum("j,jim->mi", w, spec.f)  # [w, e_i] = ad[m, i] e_m
        ref = np.array([_mp_expm(t * ad, xi)[0] for t in s])
        assert np.max(np.abs(spec.transport(xi, w, s) - ref)) <= _reference_tol(radius, ref)


@pytest.mark.parametrize("name", SPECS)
def test_exp_matches_scipy_on_stacks(name):
    # stacked w of any leading shape give stacked group elements; the
    # transport agrees with xi expm(s ad_w) along the same stack
    spec = ld.builtin_spec(name)
    rng = np.random.default_rng(9)
    w = _ball_stack(rng, 200, np.pi)
    for stack in (w, w.reshape(4, 50, 3)):
        got = spec.exp(stack)
        ref = np.reshape([expm(spec.rho(x)) for x in stack.reshape(-1, 3)], (*stack.shape[:-1], spec.d, spec.d))
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14
    assert np.max(np.abs(spec.exp(w[7]) - expm(spec.rho(w[7])))) <= 1e-14
    s, xi = np.linspace(0.0, 1.0, 5), rng.standard_normal(3)
    for x in w[:20]:
        ad = np.einsum("j,jim->mi", x, spec.f)  # [w, e_i] = ad[m, i] e_m
        ref = np.array([xi @ expm(t * ad) for t in s])
        assert np.max(np.abs(spec.transport(xi, x, s) - ref)) <= 1e-14


@pytest.mark.parametrize("name", SPECS)
def test_exp_of_small_and_zero_stacks(name):
    # norms up to about 4e-3, as in holonomy steps, are within an ulp of 1
    # of the reference; a zero stack gives the identity exactly, in the
    # stack's shape, and a zero w transports xi to itself exactly
    spec = ld.builtin_spec(name)
    w = _ball_stack(np.random.default_rng(4), 50, 3e-3)
    assert np.max(np.abs(spec.exp(w) - np.array([expm(spec.rho(x)) for x in w]))) <= 2.0 ** -52
    zero = np.zeros((2, 5, 3))
    assert np.array_equal(spec.exp(zero), np.broadcast_to(np.eye(spec.d), (2, 5, spec.d, spec.d)))
    xi = np.array([0.3, -0.2, 0.5])
    assert np.array_equal(spec.transport(xi, zero[0, 0], np.linspace(0.0, 1.0, 4)), np.tile(xi, (4, 1)))


@pytest.mark.parametrize("tapered", [False, True])
@pytest.mark.parametrize("name", SPECS)
def test_from_groupoid_matches_mpmath(name, tapered):
    # X at 7 nodes against xi exp(scale(u) ad_w), w = log g
    spec = ld.builtin_spec(name)
    rng = np.random.default_rng(22)
    xi, g = rng.standard_normal(3), spec.exp(rng.standard_normal(3))
    m = ld.from_groupoid(spec, xi, g, N=6, tapered=tapered)
    ad = np.einsum("j,jim->mi", spec.components(spec.log(g)), spec.f)
    scale = ps.taper(np.linspace(0.0, 1.0, 7), tapered)[0]
    ref = np.array([_mp_expm(t * ad, xi)[0] for t in scale])
    assert np.max(np.abs(m.X - ref)) <= 2e-15 * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", ["su2", "so3"])
def test_exp_stays_on_the_group_for_huge_rotations(name):
    spec = ld.builtin_spec(name)
    rng = np.random.default_rng(23)
    w = np.concatenate([_sphere_stack(rng, 20, r) for r in (1e10, 1e100, 1e200, 5e299, 1e300)])
    g = spec.exp(w)
    assert max(spec.group_membership_defect(x) for x in g) <= 1e-15
    xi = np.array([0.3, -0.2, 0.5])
    for x in w[::10]:  # the transport keeps the Casimir |X|
        radii = np.linalg.norm(spec.transport(xi, x, np.linspace(0.0, 1.0, 5)), axis=1)
        assert np.max(np.abs(radii - np.linalg.norm(xi))) <= 1e-15


def test_exp_of_a_huge_nilpotent_is_exact_or_overflows():
    heis = ld.builtin_spec("heisenberg3")
    assert np.array_equal(heis.exp(np.diag([1e300] * 3)), np.eye(3) + 1e300 * heis.basis)
    with pytest.raises(ex.NumericalError, match="^matrix exponential overflows$"):
        heis.exp([1e300, 1e300, 0.0])  # the entry w1 w2 / 2 = 5e599


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", SPECS)
def test_exp_and_transport_reject_non_finite_input(name, bad):
    spec = ld.builtin_spec(name)
    with pytest.raises(ValueError, match="non-finite"):
        spec.exp([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]])
    with pytest.raises(ValueError, match="non-finite"):
        spec.transport([1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 1.0])


def test_the_package_has_no_general_exponential():
    assert ld.expm is None and "expm" not in ld.__all__


@pytest.mark.parametrize("name, constants", [("su2", (0.5, 1.0)), ("so3", (1.0, 1.0)), ("heisenberg3", (0.0, 0.0))])
def test_builtin_specs_pass_the_rodrigues_check(name, constants):
    assert ld.builtin_spec(name).rodrigues == constants


def test_a_spec_must_state_its_rodrigues_constants():
    so3 = ld.builtin_spec("so3")
    with pytest.raises(TypeError, match="rodrigues"):
        ld.LieAlgebraSpec(n=3, f=so3.f, basis=so3.basis, project=so3.project, log=so3.log)


@pytest.mark.parametrize("constants", [(0.5, 1.0), (1.0, 0.5), (1.0, np.nan), (1.0,)])
def test_wrong_rodrigues_constants_are_refused(constants):
    so3 = ld.builtin_spec("so3")
    with pytest.raises(ValueError):
        ld.LieAlgebraSpec(n=3, f=so3.f, basis=so3.basis, project=so3.project,
                          log=so3.log, rodrigues=constants)


@pytest.mark.parametrize("constants", [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0)])
def test_sl2r_has_no_rodrigues_constants(constants):
    # H = diag(1, -1), E, F: H^3 = H, so K^3 = -theta^2 K fails for every real c
    basis = np.array([[[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])
    f = np.zeros((3, 3, 3))
    for i, j, k, v in ((0, 1, 1, 2.0), (0, 2, 2, -2.0), (1, 2, 0, 1.0)):  # [H,E]=2E, [H,F]=-2F, [E,F]=H
        f[i, j, k], f[j, i, k] = v, -v
    spec = dict(n=3, f=f, basis=basis, project=lambda m: m, log=lambda m: m)
    with pytest.raises(ValueError, match="does not give K\\^3 = -theta\\^2 K"):
        ld.LieAlgebraSpec(**spec, rodrigues=constants)


@pytest.mark.parametrize("name", SPECS)
def test_log_inverts_expm(name):
    spec = ld.builtin_spec(name)
    for w in _ball_stack(np.random.default_rng(10), 50, 3.0):
        back = spec.components(spec.log(spec.exp(w)))
        assert np.max(np.abs(back - w)) < 1e-12


@pytest.mark.parametrize("name", ["su2", "so3"])
def test_log_is_uniform_up_to_and_at_the_antipode(name):
    # quaternion (su2) or rotation (so3) angle pi - d: the rotation vector
    # in components has length 2 (pi - d) for su2 and pi - d for so3
    spec = ld.builtin_spec(name)
    length = 2.0 if name == "su2" else 1.0
    rng = np.random.default_rng(17)
    worst = 0.0
    for d in (1e-1, 1e-3, 1e-5, 1e-7, 1e-9, 0.0):
        axes = rng.standard_normal((200, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        g = spec.exp(length * (np.pi - d) * axes)
        worst = max(worst, max(np.max(np.abs(spec.exp(spec.components(spec.log(gi))) - gi)) for gi in g))
    assert worst <= 4e-15


def test_log_of_the_su2_antipode_takes_the_first_axis(su2):
    w = su2.components(su2.log(-np.eye(4)))
    assert np.max(np.abs(w - [2.0 * np.pi, 0.0, 0.0])) <= 1e-15


@pytest.mark.parametrize("N", [-5, 0, 1])
def test_from_groupoid_refuses_fewer_than_two_intervals(N):
    spec = ld.builtin_spec("su2")
    with pytest.raises(ValueError, match=f"^from_groupoid needs N >= 2 intervals, got N = {N}$"):
        ld.from_groupoid(spec, [0.3, 0.2, 0.5], spec.project(np.eye(4)), N=N)


def _sample_holonomy(spec, N):
    u = np.linspace(0.0, 1.0, N + 1)
    eta = np.stack([np.sin(3 * u), np.cos(2 * u), u ** 2], axis=1)
    return ld.holonomy(spec, ps.DiscretizedMorphism(n=3, X=np.ones((N + 1, 3)), eta=eta))


@pytest.mark.parametrize("name", SPECS)
def test_holonomy_is_second_order(name):
    # differences of successive halvings fall by 2^order
    spec = ld.builtin_spec(name)
    h250, h500, h1000 = (_sample_holonomy(spec, N) for N in (250, 500, 1000))
    order = np.log2(np.max(np.abs(h250 - h500)) / np.max(np.abs(h500 - h1000)))
    assert abs(order - 2.0) <= 0.3


@pytest.mark.parametrize("name", SPECS)
def test_holonomy_stays_on_group_without_projecting(name):
    def refuse(_):
        raise AssertionError("holonomy projected onto the group")

    spec = dataclasses.replace(ld.builtin_spec(name), project=refuse)
    hol = _sample_holonomy(spec, 2000)
    assert ld.builtin_spec(name).group_membership_defect(hol) <= 1e-13


def test_casimir_constant_along_representatives(su2):
    rng = np.random.default_rng(3)
    xi = rng.standard_normal(3)
    g = _random_group(su2, rng)
    m = ld.from_groupoid(su2, xi, g, N=500)
    radii = np.linalg.norm(m.X, axis=1)
    assert np.max(radii) - np.min(radii) < 1e-10


@pytest.mark.parametrize("name, g", [
    ("su2", -np.eye(4)),
    ("so3", np.diag([1.0, -1.0, -1.0])),
    ("so3", 2.0 * np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) / 9.0 - np.eye(3)),
], ids=["su2-minus-one", "so3-about-x", "so3-about-122"])
def test_from_groupoid_at_the_antipode(name, g):
    # every group element is a point of T*G: -1 and rotations by pi too
    spec = ld.builtin_spec(name)
    m = ld.from_groupoid(spec, [0.3, -0.2, 0.5], g)
    assert np.max(np.abs(ld.holonomy(spec, m) - g)) <= 1e-12
    radii = np.linalg.norm(m.X, axis=1)
    assert np.max(radii) - np.min(radii) <= 1e-14


def test_coadjoint_is_action(su2):
    rng = np.random.default_rng(4)
    xi = rng.standard_normal(3)
    g1 = _random_group(su2, rng)
    g2 = _random_group(su2, rng)
    lhs = ld.coadjoint(su2, g1 @ g2, xi)
    rhs = ld.coadjoint(su2, g1, ld.coadjoint(su2, g2, xi))
    assert np.max(np.abs(lhs - rhs)) < 1e-12
    # identity acts trivially
    assert np.allclose(ld.coadjoint(su2, np.eye(4), xi), xi)


def test_coadjoint_preserves_casimir(su2):
    rng = np.random.default_rng(5)
    xi = rng.standard_normal(3)
    g = _random_group(su2, rng)
    assert abs(np.linalg.norm(ld.coadjoint(su2, g, xi))
               - np.linalg.norm(xi)) < 1e-12


def test_multiply_lie_and_inverse(su2):
    rng = np.random.default_rng(6)
    xi = rng.standard_normal(3)
    g1 = _random_group(su2, rng)
    g2 = _random_group(su2, rng)
    a = ld.LieGroupoidPoint(xi, g1)
    b = ld.LieGroupoidPoint(ld.right_lie(su2, a), g2)
    prod = ld.multiply_lie(su2, a, b)
    assert np.allclose(prod.xi, xi)
    assert np.max(np.abs(prod.g - g1 @ g2)) < 1e-12
    # non-composable pairs are rejected
    with pytest.raises(ValueError):
        ld.multiply_lie(su2, a, ld.LieGroupoidPoint(xi + 1.0, g2))
    inv = ld.inverse_lie(su2, a)
    unit = ld.multiply_lie(su2, a, inv)
    assert np.max(np.abs(unit.g - np.eye(4))) < 1e-12
    assert np.allclose(unit.xi, xi)


def test_multiply_lie_rejects_a_nan_xi(su2):
    a = ld.LieGroupoidPoint([0.3, -0.2, 0.5], _random_group(su2, np.random.default_rng(6)))
    with pytest.raises(ValueError, match="not composable"):
        ld.multiply_lie(su2, a, ld.LieGroupoidPoint(np.full(3, np.nan), np.eye(4)))


def test_from_groupoid_rejects_a_nan_group_element():
    # the NaN used to pass the membership check and fail later, in the exponential
    heis = ld.builtin_spec("heisenberg3")
    g = np.eye(3)
    g[0, 2] = np.nan
    with pytest.raises(ValueError, match="g is not on the group manifold"):
        ld.from_groupoid(heis, [0.3, -0.2, 0.5], g, N=10)


def test_right_lie_matches_path_endpoint(su2):
    rng = np.random.default_rng(7)
    xi = rng.standard_normal(3)
    g = _random_group(su2, rng)
    m = ld.from_groupoid(su2, xi, g, N=400)
    r = ld.right_lie(su2, ld.LieGroupoidPoint(xi, g))
    assert np.max(np.abs(m.X[-1] - r)) < 1e-10


def test_concatenation_maps_to_group_product(su2):
    rng = np.random.default_rng(8)
    s = ld.kk_structure(su2)
    xi = rng.standard_normal(3)
    g1 = _random_group(su2, rng)
    g2 = _random_group(su2, rng)
    m1 = ld.from_groupoid(su2, xi, g1, N=1000, tapered=True)
    xi2 = ld.right_lie(su2, ld.LieGroupoidPoint(xi, g1))
    m2 = ld.from_groupoid(su2, xi2, g2, N=1000, tapered=True)
    glued = ps.concatenate(m1, m2)
    assert ps.gauss_residual(s, glued) < 5e-4
    back = ld.to_groupoid(su2, glued, residual_tol=1e-3)
    assert np.max(np.abs(back.xi - xi)) < 1e-12
    assert np.max(np.abs(back.g - su2.project(g1 @ g2))) < 1e-5


def test_heisenberg_holonomy_upper_triangular():
    spec = ld.builtin_spec("heisenberg3")
    u = np.linspace(0, 1, 401)
    eta = np.stack([np.sin(np.pi * u), np.cos(2 * np.pi * u) - 1, 0 * u],
                   axis=1)
    m = ps.DiscretizedMorphism(n=3, X=np.ones((401, 3)), eta=eta)
    hol = ld.holonomy(spec, m)
    assert np.allclose(np.diag(hol), 1.0)
    assert abs(hol[1, 0]) + abs(hol[2, 0]) + abs(hol[2, 1]) == 0.0


def test_builtin_spec_unknown_name():
    with pytest.raises(ValueError):
        ld.builtin_spec("e8")
