"""Poisson structures with first derivatives and the numeric Jacobi
identity (the Koszul bracket is ``pathspace.koszul_bracket_values``).

Index conventions: ``alpha(x)[i, j]`` is the bivector component
``alpha^{ij}(x)``; ``dalpha(x)[k, i, j]`` is the partial derivative
``d_k alpha^{ij}``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import expr as ex

__all__ = [
    "PoissonStructure",
    "constant_structure", "two_domain", "kirillov_kostant",
    "rot_invariant3", "structure_constants_from_json",
    "jacobi_residual", "DomainError",
]


class DomainError(ValueError):
    """Point outside the structure's domain."""


@dataclass(frozen=True)
class PoissonStructure:
    """Bundle of evaluators for an antisymmetric bivector field on R^n.

    ``alpha``, ``dalpha`` and ``in_domain`` each take one point, shape
    (n,) (a list too), or a batch of points, shape (m, n). For one point
    they return alpha^{ij} with shape (n, n), d_k alpha^{ij} with shape
    (n, n, n) and a bool; for a batch, arrays of shape (m, n, n),
    (m, n, n, n) and (m,). ``in_domain=None`` means all of R^n. The
    batch entry points ``alpha_at``, ``dalpha_at`` and
    ``pathspace._check_domain`` raise ValueError on any other shape."""

    n: int
    alpha: Callable[[np.ndarray], np.ndarray]
    dalpha: Callable[[np.ndarray], np.ndarray]
    in_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "poisson"
    # not constructor options: perfbench/tracer.py reads these names and
    # skips them while they are None
    d2alpha = alpha_batch = dalpha_batch = None

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got {x.shape}")
        if self.in_domain is not None and not self.in_domain(x):
            raise DomainError(f"point {x} outside domain of {self.name}")
        return x

    def alpha_at(self, X):
        """alpha over a batch of points X with shape (m, n) -> (m, n, n)."""
        X = np.asarray(X, dtype=float)
        return self._batch_result(self.alpha(X), X, "alpha", 2)

    def dalpha_at(self, X):
        """dalpha over a batch of points X with shape (m, n) -> (m, n, n, n)."""
        X = np.asarray(X, dtype=float)
        return self._batch_result(self.dalpha(X), X, "dalpha", 3)

    def _batch_result(self, value, X, what, rank):
        expected = (len(X),) + (self.n,) * rank
        if np.shape(value) != expected:
            raise ValueError(f"{what} of {self.name} returned shape "
                             f"{np.shape(value)} on a batch, expected {expected}")
        return value


def jacobi_residual(s: PoissonStructure, x) -> float:
    """Max over (i,j,k) of the cyclic sum
    sum_l alpha^{il} d_l alpha^{jk} + cyclic; zero iff Poisson at x."""
    x = s.check_point(x)
    a = s.alpha(x)
    d = s.dalpha(x)  # d[l, i, j] = d_l alpha^{ij}
    term = np.einsum("il,ljk->ijk", a, d)
    cyc = term + np.transpose(term, (1, 2, 0)) + np.transpose(term, (2, 0, 1))
    return float(np.max(np.abs(cyc)))


# ---------------------------------------------------------------------------
# Built-in constructors

def constant_structure(matrix, name="constant") -> PoissonStructure:
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, -A.T, atol=1e-12):
        raise ValueError("constant structure needs an antisymmetric square matrix")
    return PoissonStructure(
        n=n,
        alpha=lambda x: np.zeros(np.shape(x)[:-1] + (n, n)) + A,
        dalpha=lambda x: np.zeros(np.shape(x)[:-1] + (n, n, n)),
        name=name,
    )


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def two_domain(phi: ex.Expr, name="two_domain") -> PoissonStructure:
    """alpha^{ij} = eps^{ij} phi(x1, x2) on R^2, eps^{12} = +1."""
    d1 = ex.differentiate(phi, "x1")
    d2 = ex.differentiate(phi, "x2")

    # x.T[0] of one point is a number, which takes evaluate's float path
    def alpha(x):
        x = np.asarray(x, dtype=float).T
        v = ex.evaluate(phi, {"x1": x[0], "x2": x[1]})
        return np.asarray(v)[..., None, None] * _EPS2

    def dalpha(x):
        x = np.asarray(x, dtype=float).T
        p = {"x1": x[0], "x2": x[1]}
        grads = np.array([ex.evaluate(d1, p), ex.evaluate(d2, p)]).T
        return grads[..., None, None] * _EPS2

    return PoissonStructure(n=2, alpha=alpha, dalpha=dalpha, name=name)


def kirillov_kostant(f, name="kirillov_kostant") -> PoissonStructure:
    """Linear structure alpha^{ij}(x) = f^{ij}_k x^k from structure
    constants f with shape (n, n, n), indexed f[i, j, k]."""
    f = np.array(f, dtype=float)
    n = f.shape[0]
    if f.shape != (n, n, n):
        raise ValueError("structure constants must have shape (n, n, n)")
    if not np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=1e-12):
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    dmat = np.transpose(f, (2, 0, 1)).copy()  # d_k alpha^{ij} = f^{ij}_k

    return PoissonStructure(
        n=n,
        alpha=lambda x: np.einsum("ijk,...k->...ij", f, np.asarray(x, dtype=float)),
        dalpha=lambda x: np.zeros(np.shape(x)[:-1] + dmat.shape) + dmat,
        name=name,
    )


def structure_constants_from_json(entries, n) -> np.ndarray:
    """Build f[i, j, k] from a JSON array of triples (i, j, k, value),
    1-based indices; antisymmetry in (i, j) is validated."""
    f = np.zeros((n, n, n))
    for item in entries:
        i, j, k, value = item
        i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise ValueError(f"index out of range in entry {item}")
        if f[i, j, k] not in (0.0, float(value)):
            raise ValueError(f"conflicting duplicate entry {item}")
        f[i, j, k] = float(value)
    full = f - np.transpose(f, (1, 0, 2))
    # entries that explicitly listed both orientations must agree
    listed_both = (f != 0) & (np.transpose(f, (1, 0, 2)) != 0)
    if np.any(listed_both & ~np.isclose(f, -np.transpose(f, (1, 0, 2)))):
        raise ValueError("structure constants not antisymmetric in (i, j)")
    full[listed_both] = f[listed_both]
    return full


_EPS3 = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS3[_i, _j, _k] = 1.0
    _EPS3[_j, _i, _k] = -1.0
_EPS3.setflags(write=False)  # shared by the so3 and su2 specs


def _radius(x):
    """|x| over the last axis; of one point, the bits of np.linalg.norm(x)."""
    return np.sqrt(np.vecdot(x, x))


def rot_invariant3(f: ex.Expr, r_min=1e-6, name="rot_invariant3") -> PoissonStructure:
    """alpha^{ij}(x) = f(|x|) eps^{ijk} x^k on R^3 minus a small ball
    around the origin."""
    fprime = ex.differentiate(f, "R")

    def alpha(x):
        x = np.asarray(x, dtype=float)
        fv = np.asarray(ex.evaluate(f, {"R": _radius(x)}))
        return fv[..., None, None] * np.einsum("ijk,...k->...ij", _EPS3, x)

    def dalpha(x):
        x = np.asarray(x, dtype=float)
        r = _radius(x)
        fv = np.asarray(ex.evaluate(f, {"R": r}))
        fp = np.asarray(ex.evaluate(fprime, {"R": r}))
        base = np.einsum("ijk,...k->...ij", _EPS3, x)
        # d_l alpha^{ij} = f'(R) x^l / R * eps^{ijk} x^k + f(R) eps^{ijl}
        term1 = (fp / r)[..., None, None, None] * x[..., :, None, None] * base[..., None, :, :]
        return term1 + fv[..., None, None, None] * np.transpose(_EPS3, (2, 0, 1))

    return PoissonStructure(
        n=3, alpha=alpha, dalpha=dalpha,
        in_domain=lambda x: _radius(np.asarray(x, dtype=float)) >= r_min,
        name=name,
    )
