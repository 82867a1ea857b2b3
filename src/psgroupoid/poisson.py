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
    """Bundle of evaluators for an antisymmetric bivector field on R^n."""

    n: int
    alpha: Callable[[np.ndarray], np.ndarray]
    dalpha: Callable[[np.ndarray], np.ndarray]
    in_domain: Callable[[np.ndarray], bool]
    # unused by the package; kept because perfbench/tracer.py reads it by name
    d2alpha: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "poisson"
    # optional vectorized evaluators over a batch of points (m, n)
    alpha_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None
    dalpha_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got {x.shape}")
        if not self.in_domain(x):
            raise DomainError(f"point {x} outside domain of {self.name}")
        return x

    def alpha_at(self, X):
        """alpha over a batch of points X with shape (m, n) -> (m, n, n)."""
        X = np.asarray(X, dtype=float)
        if self.alpha_batch is not None:
            return self.alpha_batch(X)
        return np.stack([self.alpha(x) for x in X])

    def dalpha_at(self, X):
        """dalpha over a batch of points X with shape (m, n) -> (m, n, n, n)."""
        X = np.asarray(X, dtype=float)
        if self.dalpha_batch is not None:
            return self.dalpha_batch(X)
        return np.stack([self.dalpha(x) for x in X])


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
    zeros = np.zeros((n, n, n))
    return PoissonStructure(
        n=n,
        alpha=lambda x: A,
        dalpha=lambda x: zeros,
        in_domain=lambda x: True,
        name=name,
        alpha_batch=lambda X: np.broadcast_to(A, (len(X), n, n)).copy(),
        dalpha_batch=lambda X: np.zeros((len(X), n, n, n)),
    )


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def two_domain(phi: ex.Expr, in_domain=None, name="two_domain") -> PoissonStructure:
    """alpha^{ij} = eps^{ij} phi(x1, x2) on a 2D domain, eps^{12} = +1."""
    d1 = ex.differentiate(phi, "x1")
    d2 = ex.differentiate(phi, "x2")

    def point(x):
        return {"x1": x[..., 0], "x2": x[..., 1]}

    def alpha(x):
        return _EPS2 * ex.evaluate(phi, {"x1": x[0], "x2": x[1]})

    def dalpha(x):
        p = {"x1": x[0], "x2": x[1]}
        grads = np.array([ex.evaluate(d1, p), ex.evaluate(d2, p)])
        return grads[:, None, None] * _EPS2

    def alpha_batch(X):
        vals = ex.evaluate(phi, point(X))
        return vals[:, None, None] * _EPS2

    def dalpha_batch(X):
        p = point(X)
        grads = np.stack([ex.evaluate(d1, p), ex.evaluate(d2, p)], axis=1)
        return grads[:, :, None, None] * _EPS2

    return PoissonStructure(
        n=2, alpha=alpha, dalpha=dalpha,
        in_domain=(in_domain or (lambda x: True)), name=name,
        alpha_batch=alpha_batch, dalpha_batch=dalpha_batch,
    )


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
        alpha=lambda x: np.einsum("ijk,k->ij", f, np.asarray(x, dtype=float)),
        dalpha=lambda x: dmat,
        in_domain=lambda x: True,
        name=name,
        alpha_batch=lambda X: np.einsum("ijk,mk->mij", f, np.asarray(X, dtype=float)),
        dalpha_batch=lambda X: np.broadcast_to(dmat, (len(X), n, n, n)).copy(),
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


def rot_invariant3(f: ex.Expr, r_min=1e-6, name="rot_invariant3") -> PoissonStructure:
    """alpha^{ij}(x) = f(|x|) eps^{ijk} x^k on R^3 minus a small ball
    around the origin."""
    fprime = ex.differentiate(f, "R")

    def alpha(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        return ex.evaluate(f, {"R": r}) * np.einsum("ijk,k->ij", _EPS3, x)

    def dalpha(x):
        x = np.asarray(x, dtype=float)
        r = np.linalg.norm(x)
        fv = ex.evaluate(f, {"R": r})
        fp = ex.evaluate(fprime, {"R": r})
        base = np.einsum("ijk,k->ij", _EPS3, x)
        # d_l alpha^{ij} = f'(R) x^l / R * eps^{ijk} x^k + f(R) eps^{ijl}
        return (fp / r) * x[:, None, None] * base + fv * np.transpose(_EPS3, (2, 0, 1))

    def alpha_batch(X):
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        fv = ex.evaluate(f, {"R": r})
        return fv[:, None, None] * np.einsum("ijk,mk->mij", _EPS3, X)

    def dalpha_batch(X):
        X = np.asarray(X, dtype=float)
        r = np.linalg.norm(X, axis=1)
        fv = ex.evaluate(f, {"R": r})
        fp = ex.evaluate(fprime, {"R": r})
        base = np.einsum("ijk,mk->mij", _EPS3, X)
        term1 = (fp / r)[:, None, None, None] * X[:, :, None, None] * base[:, None, :, :]
        term2 = fv[:, None, None, None] * np.transpose(_EPS3, (2, 0, 1))
        return term1 + term2

    return PoissonStructure(
        n=3, alpha=alpha, dalpha=dalpha,
        in_domain=lambda x: bool(np.linalg.norm(x) >= r_min),
        name=name, alpha_batch=alpha_batch, dalpha_batch=dalpha_batch,
    )
