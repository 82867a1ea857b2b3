import dataclasses

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
    g1 = spec.project(ld.expm(spec.rho(0.7 * rng.standard_normal(spec.n))))
    g2 = spec.project(ld.expm(spec.rho(0.7 * rng.standard_normal(spec.n))))
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


@pytest.mark.parametrize("name", SPECS)
def test_expm_matches_scipy_on_stacks(name):
    spec = ld.builtin_spec(name)
    w = _ball_stack(np.random.default_rng(9), 200, np.pi)
    rho = np.einsum("mj,jab->mab", w, spec.basis)
    ad = np.einsum("pj,jim->pmi", w, spec.f)  # [w, e_i] = ad[m, i] e_m
    for stack in (rho, ad, rho.reshape(4, 50, spec.d, spec.d)):
        got = ld.expm(stack)
        ref = np.reshape([expm(a) for a in stack.reshape(-1, *stack.shape[-2:])], stack.shape)
        assert got.shape == stack.shape
        assert np.max(np.abs(got - ref)) <= 1e-14
    assert np.max(np.abs(ld.expm(rho[7]) - expm(rho[7]))) <= 1e-14


@pytest.mark.parametrize("name", SPECS)
def test_expm_of_small_and_zero_stacks(name):
    # a stack of norms up to about 4e-3, as in holonomy steps, needs no
    # halving and takes degree 5; a zero stack takes degree 1 and still
    # has the stack's shape
    spec = ld.builtin_spec(name)
    rho = np.einsum("mj,jab->mab", _ball_stack(np.random.default_rng(4), 50, 3e-3), spec.basis)
    taylor = np.eye(spec.d)
    for k in range(5, 0, -1):
        taylor = np.eye(spec.d) + (rho @ taylor) / k
    assert ld.expm(rho).tobytes() == taylor.tobytes()
    assert np.max(np.abs(taylor - np.array([expm(a) for a in rho]))) <= 2.0 ** -52  # an ulp of 1
    zero = np.zeros((2, 5, spec.d, spec.d))
    assert np.array_equal(ld.expm(zero), np.broadcast_to(np.eye(spec.d), zero.shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_expm_rejects_non_finite_input(bad):
    a = np.zeros((2, 3, 3))
    a[1, 0, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        ld.expm(a)


@pytest.mark.parametrize("name", SPECS)
def test_expm_raises_where_squaring_overflows(name):
    # exp(1e300 e_j) is exact and finite for the nilpotent heisenberg3
    # basis; the N^2 / 2 term of exp(rho(1e300, 1e300, 1e300)) overflows
    spec = ld.builtin_spec(name)
    a = spec.rho(np.full(3, 1e300)) if name == "heisenberg3" else 1e300 * spec.basis
    with pytest.raises(ValueError, match="matrix exponential overflows"):
        ld.expm(a)


def test_expm_of_a_huge_nilpotent_is_exact():
    basis = ld.builtin_spec("heisenberg3").basis
    assert np.array_equal(ld.expm(1e300 * basis), np.eye(3) + 1e300 * basis)
    assert np.linalg.det(ld.expm(1e300 * basis[0])) == 1.0


@pytest.mark.parametrize("name, w", [("so3", [1e20, 0.0, 0.0]), ("su2", [1e17, 1e17, 0.0])])
def test_expm_raises_where_rounding_swamps_a_huge_rotation(name, w):
    # no squaring overflows, yet the ~60 squarings left det 0 for so3 and
    # 1.6e34 for su2, where det exp A = exp tr A = 1
    spec = ld.builtin_spec(name)
    with pytest.raises(ValueError, match="loses its accuracy"):
        ld.expm(spec.rho(w))
    with pytest.raises(ValueError, match="loses its accuracy"):
        ld.expm(np.stack([spec.rho([0.3, 0.2, 0.1]), spec.rho(w)]))


@pytest.mark.parametrize("name", ["su2", "so3"])
def test_expm_keeps_large_rotations_on_the_group(name):
    # 1e8 needs 28 or 29 halvings, under the determinant check's threshold
    spec = ld.builtin_spec(name)
    g = ld.expm(spec.rho([1e8, 0.0, 0.0]))
    assert spec.group_membership_defect(g) < 1e-6


@pytest.mark.parametrize("name", SPECS)
def test_log_inverts_expm(name):
    spec = ld.builtin_spec(name)
    for w in _ball_stack(np.random.default_rng(10), 50, 3.0):
        back = spec.components(spec.log(ld.expm(spec.rho(w))))
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
        g = ld.expm(np.einsum("mj,jab->mab", length * (np.pi - d) * axes, spec.basis))
        worst = max(worst, max(np.max(np.abs(ld.expm(spec.log(gi)) - gi)) for gi in g))
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
    # the NaN used to pass the membership check and fail later, in expm
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
