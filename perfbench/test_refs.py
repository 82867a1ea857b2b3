"""Checks of the benchmark's reference values against computations made
another way (scipy's expm, dense sampling, finite differences, the
defining identities). Run with

    PYTHONPATH=src python3 -m pytest perfbench/test_refs.py
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import refs

RNG_SEED = 2024


def rng():
    return np.random.default_rng(RNG_SEED)


def su2_rho(w):
    return refs.quat_left_matrix(np.concatenate([[0.0], np.asarray(w) / 2]))


def heis_rho(w):
    return np.array([[0.0, w[0], w[2]], [0.0, 0.0, w[1]], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize("name, rho", [("su2", su2_rho), ("so3", refs.hat),
                                       ("heisenberg3", heis_rho)])
def test_group_exponentials_match_expm(name, rho):
    r = rng()
    for _ in range(50):
        w = r.uniform(-2, 2, 3)
        assert np.max(np.abs(refs.group_exp(name, w) - expm(rho(w)))) <= 1e-12


@pytest.mark.parametrize("name, rho", [("su2", su2_rho), ("so3", refs.hat)])
def test_adjoint_is_conjugation(name, rho):
    r = rng()
    for _ in range(20):
        g = refs.group_exp(name, r.uniform(-2, 2, 3))
        A = refs.adjoint(name, g)
        v = r.uniform(-1, 1, 3)
        assert np.max(np.abs(g @ rho(v) @ np.linalg.inv(g) - rho(A @ v))) <= 1e-12


def test_quaternion_product_and_rotation():
    r = rng()
    for _ in range(20):
        p = refs.su2_quat(r.uniform(-2, 2, 3))
        q = refs.su2_quat(r.uniform(-2, 2, 3))
        pq = refs.quat_left_matrix(p) @ refs.quat_left_matrix(q)
        assert np.max(np.abs(refs.quat_left_matrix(refs.quat_product(p, q)) - pq)) <= 1e-14
        v = r.uniform(-1, 1, 3)
        conj = np.concatenate([[p[0]], -p[1:]])
        rotated = refs.quat_product(refs.quat_product(p, np.concatenate([[0.0], v])), conj)
        assert np.max(np.abs(rotated[1:] - refs.quat_rotation(p) @ v)) <= 1e-14


def _qp_member_by_sampling(x, pi, samples=20001):
    t = np.linspace(0.0, 1.0, samples)
    h = (1 - t * x[1] * pi[1]) * (1 + t * x[0] * pi[0])
    xf = [refs.qp_x_f(x, s * np.asarray(pi)) for s in t[:: samples // 100]]
    return bool(np.all(h > 0) and all(refs.in_box(p) for p in xf) and refs.in_box(x))


def test_qp_membership_matches_dense_ray_sampling():
    r = rng()
    checked = 0
    for _ in range(400):
        x = r.uniform(-3, 3, 2)
        pi = r.uniform(-3, 3, 2)
        roots = refs.qp_ray_roots(x, pi)
        if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-3:
            continue  # a dip narrower than the sampling grid
        assert refs.qp_member(x, pi) == _qp_member_by_sampling(x, pi), (x, pi)
        checked += 1
    assert checked > 300


def test_qp_closed_forms_are_the_groupoid_maps():
    r = rng()
    for _ in range(200):
        x = r.uniform(-2, 2, 2)
        pi = r.uniform(-1, 1, 2)
        if not refs.qp_member(x, pi) or abs(x[0] * x[1]) < 1e-2:
            continue
        xf = refs.qp_x_f(x, pi)
        # h = phi(x_f) / phi(x)
        assert math.isclose(refs.qp_h(x, pi), xf[0] * xf[1] / (x[0] * x[1]), rel_tol=1e-10)
        # psi by the quotient form (1 + pi1 d2 phi - pi2 d1 phi - h) / phi
        quotient = (1 + pi[0] * x[0] - pi[1] * x[1] - refs.qp_h(x, pi)) / (x[0] * x[1])
        assert abs(quotient - refs.qp_psi(x, pi)) <= 1e-9
        # cocycle and target of a product, and g . g^-1 = identity at x
        pi2 = r.uniform(-1, 1, 2)
        px, ppi = refs.qp_multiply(x, pi, pi2)
        assert math.isclose(refs.qp_h(px, ppi), refs.qp_h(x, pi) * refs.qp_h(xf, pi2), rel_tol=1e-10)
        assert np.allclose(refs.qp_x_f(px, ppi), refs.qp_x_f(xf, pi2), atol=1e-10)
        ix, ipi = refs.qp_inverse(x, pi)
        assert np.allclose(refs.qp_multiply(x, pi, ipi)[1], 0.0, atol=1e-12)
        assert np.allclose(ix, xf)


def test_sin_closed_forms():
    r = rng()
    for _ in range(200):
        x = r.uniform(-9, 9, 2)
        pi = r.uniform(-1, 1, 2)
        phi = math.sin(x[0]) + 2
        xf = refs.sin_x_f(x, pi)
        h = refs.sin_h(x, pi)
        # psi: the Gauss-Legendre integral against the antiderivative
        a = phi * pi[1]
        if abs(a) > 1e-2:
            closed = pi[1] ** 2 * ((math.sin(x[0]) - math.sin(x[0] - a)) / a ** 2
                                   - math.cos(x[0]) / a)
            assert abs(refs.sin_psi(x, pi) - closed) <= 1e-10
        quotient = (1 - pi[1] * math.cos(x[0]) - h) / phi
        assert abs(refs.sin_psi(x, pi) - quotient) <= 1e-12
        pi2 = r.uniform(-1, 1, 2)
        px, ppi = refs.sin_multiply(x, pi, pi2)
        assert math.isclose(refs.sin_h(px, ppi), h * refs.sin_h(xf, pi2), rel_tol=1e-10)
        assert refs.sin_member(x, pi) == (refs.in_box(x) and refs.in_box(xf))


def test_cubic_profile_by_finite_differences():
    step = 1e-6
    for R in np.linspace(0.6, 1.4, 41):
        f = refs.cubic_f(R)
        fprime = (refs.cubic_f(R + step) - refs.cubic_f(R - step)) / (2 * step)
        assert abs(refs.cubic_fprime(R) - fprime) <= 1e-8
        assert math.isclose(refs.cubic_area(R), 4 * math.pi * R / f, rel_tol=1e-13)
        darea = (refs.cubic_area(R + step) - refs.cubic_area(R - step)) / (2 * step)
        assert abs(refs.cubic_darea(R) - darea) <= 1e-7
        assert abs(refs.cubic_c(R) - R * refs.cubic_fprime(R) / f) <= 1e-13
        assert abs(refs.cubic_period(R) - 4 * math.pi * (1 - refs.cubic_c(R)) / f) <= 1e-12
    # the single critical point of A is the degenerate zero of A' at R = 1
    grid = np.linspace(0.6, 1.4, 8001)
    darea = np.array([refs.cubic_darea(R) for R in grid])
    assert np.all(darea >= 0) and grid[np.argmin(darea)] == pytest.approx(refs.CUBIC_CRITICAL_R)


def test_embedding_solves_the_gauss_law():
    r = rng()
    for _ in range(10):
        x = r.uniform(-1.5, 1.5, 2)
        pi = r.uniform(-0.5, 0.5, 2)
        X, eta = refs.qp_embed(x, pi, 400)
        assert refs.gauss_residual(refs.qp_alpha, X, eta) <= 1e-12
        H1 = pi[0] / eta[-1, 0]
        assert math.isclose(H1, refs.qp_h(x, pi), rel_tol=1e-12)


@pytest.mark.parametrize("name, rho", [("su2", su2_rho), ("so3", refs.hat),
                                       ("heisenberg3", heis_rho)])
def test_structure_constants_are_the_brackets(name, rho):
    f = refs.STRUCTURE_CONSTANTS[name]
    basis = [rho(e) for e in np.eye(3)]
    for i in range(3):
        for j in range(3):
            bracket = basis[i] @ basis[j] - basis[j] @ basis[i]
            assert np.allclose(bracket, sum(f[i, j, k] * basis[k] for k in range(3)), atol=1e-15)


def test_grid_derivative_is_exact_on_quadratics():
    u = np.linspace(0, 1, 11)
    Y = np.stack([3 * u ** 2 - u, u], axis=1)
    assert np.allclose(refs.grid_derivative(Y), np.stack([6 * u - 1, np.ones_like(u)], axis=1))


def test_rotation_solution_of_the_radial_gauss_law():
    """X(u) = exp(-f(R) A(u) hat(e)) X0 solves X' = -alpha(X) eta for
    eta = a(u) e: the residual falls with the grid as N^-2."""
    e = np.array([0.6, 0.0, 0.8])
    X0 = np.array([0.3, 0.9, -0.2])
    residuals = []
    for N in (500, 1000):
        u = np.linspace(0, 1, N + 1)
        a = np.sin(math.pi * u)
        A = (1 - np.cos(math.pi * u)) / math.pi
        fR = refs.cubic_f(np.linalg.norm(X0))
        X = np.stack([refs.so3_exp(-fR * t * e) @ X0 for t in A])
        residuals.append(refs.gauss_residual(refs.cubic_alpha, X, np.outer(a, e)))
    assert residuals[1] < 1e-5 and residuals[0] / residuals[1] == pytest.approx(4, rel=0.1)
