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
from .expr import DomainError

__all__ = [
    "PoissonStructure",
    "constant_structure", "two_domain", "kirillov_kostant",
    "rot_invariant3", "jacobi_residual", "DomainError",
]


@dataclass(frozen=True)
class PoissonStructure:
    """An antisymmetric bivector field alpha on R^n, given by two
    contractions and a domain.

    ``sharp(x, e)`` is alpha^{ij}(x) e_j and ``dsharp(x, e, b)`` is
    d_i alpha^{jk}(x) e_j b_k. They take x, e and b as length-n
    sequences of components, not as rows: each component is a number,
    for one point, and then they return a tuple of n floats; or an
    array, for a batch (``sharp(X.T, E.T)`` for X and E of shape
    (m, n)), and then a tuple of n arrays of shape (m,). Components of
    any shapes that broadcast together must give components of the
    broadcast shape, or of one that broadcasts to it: ``alpha`` passes
    the basis covectors on a trailing axis and ``dalpha`` the pairs of
    them on two, each in one call, and a batch's components then get
    size-1 axes there. The constructors below give both in closed form.
    ``in_domain`` takes one point, shape (n,), or a batch, shape (m, n),
    and returns a bool or a bool array of shape (m,); ``None`` means all
    of R^n, and ``pathspace._check_domain`` raises ValueError on any
    other shape. ``alpha`` and ``dalpha`` are derived from ``sharp`` and
    ``dsharp``."""

    n: int
    sharp: Callable
    dsharp: Callable
    in_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "poisson"
    # perfbench/tracer.py reads these names by getattr and skips them while None
    d2alpha = alpha_batch = dalpha_batch = None
    # no __slots__: perfbench/tracer.py sets its wrapped alpha and dalpha on the instance

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got {x.shape}")
        if self.in_domain is not None and not self.in_domain(x):
            raise DomainError(f"point {x} outside domain of {self.name}")
        return x

    def alpha(self, x):
        """alpha^{ij} at one point x, shape (n,) -> (n, n), or over a
        batch, shape (m, n) -> (m, n, n): one ``sharp`` of the basis
        covectors, on a trailing axis."""
        x = np.asarray(x, dtype=float)
        a = self.sharp(x if x.ndim == 1 else x.T[..., None], np.eye(self.n))  # a[i][..., j] = alpha^{ij}
        return np.stack([np.broadcast_to(c, x.shape[:-1] + (self.n,)) for c in a], axis=-2)

    def dalpha(self, x):
        """d_k alpha^{ij} at one point x, shape (n,) -> (n, n, n), or over
        a batch, shape (m, n) -> (m, n, n, n): one ``dsharp`` of the pairs
        of basis covectors, on two trailing axes."""
        x = np.asarray(x, dtype=float)
        basis = np.eye(self.n)
        d = self.dsharp(x if x.ndim == 1 else x.T[..., None, None],
                        basis[:, :, None], basis[:, None, :])  # d[k][..., i, j] = d_k alpha^{ij}
        return np.stack([np.broadcast_to(c, x.shape[:-1] + (self.n, self.n)) for c in d], axis=-3)

    # perfbench/tracer.py wraps the class's batch evaluators by these names
    alpha_at = alpha
    dalpha_at = dalpha


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

def constant_structure(matrix) -> PoissonStructure:
    A = np.array(matrix, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or not np.allclose(A, -A.T, atol=1e-12):
        raise ValueError("constant structure needs an antisymmetric square matrix")
    rows = A.tolist()
    return PoissonStructure(
        n=n,
        sharp=lambda x, e: tuple(sum(a * v for a, v in zip(row, e)) for row in rows),
        dsharp=lambda x, e, b: (0.0 * e[0],) * n,
        name="constant",
    )


def two_domain(phi: ex.Expr) -> PoissonStructure:
    """alpha^{ij} = eps^{ij} phi(x1, x2) on R^2, eps^{12} = +1."""
    grad = ex.Program((ex.differentiate(phi, "x1"), ex.differentiate(phi, "x2")))

    # alpha(x) e = phi (e2, -e1)
    def sharp(x, e):
        p = ex.evaluate(phi, {"x1": x[0], "x2": x[1]})
        return p * e[1], -p * e[0]

    # d_i alpha^{jk} e_j b_k = d_i phi (e1 b2 - e2 b1)
    def dsharp(x, e, b):
        g1, g2 = ex.evaluate(grad, {"x1": x[0], "x2": x[1]})
        w = e[0] * b[1] - e[1] * b[0]
        return g1 * w, g2 * w

    return PoissonStructure(n=2, sharp=sharp, dsharp=dsharp, name="two_domain")


def kirillov_kostant(f, name="kirillov_kostant") -> PoissonStructure:
    """Linear structure alpha^{ij}(x) = f^{ij}_k x^k from structure
    constants f with shape (n, n, n), indexed f[i, j, k]."""
    f = np.array(f, dtype=float)
    n = f.shape[0]
    if f.shape != (n, n, n):
        raise ValueError("structure constants must have shape (n, n, n)")
    if not np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=1e-12):
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    # per i, the nonzero (j, k, f^{ij}_k) of sum_jk f^{ij}_k x_k e_j
    terms = [[(j, k, float(f[i, j, k])) for j in range(n) for k in range(n) if f[i, j, k]]
             for i in range(n)]
    # per i, the nonzero (j, k, f^{jk}_i) of sum_jk d_i alpha^{jk} e_j b_k
    dterms = [[(j, k, float(f[j, k, i])) for j in range(n) for k in range(n) if f[j, k, i]]
              for i in range(n)]

    def sharp(x, e):
        zero = 0.0 * e[0]  # a number or an array of the batch shape
        return tuple(sum((c * x[k] * e[j] for j, k, c in row), zero) for row in terms)

    def dsharp(x, e, b):
        zero = 0.0 * e[0]
        return tuple(sum((c * e[j] * b[k] for j, k, c in row), zero) for row in dterms)

    return PoissonStructure(n=n, sharp=sharp, dsharp=dsharp, name=name)


def _radius(x):
    """|x| over the last axis; of one point, the bits of np.linalg.norm(x)."""
    return np.sqrt(np.vecdot(x, x))


def rot_invariant3(f: ex.Expr, r_min=1e-6) -> PoissonStructure:
    """alpha^{ij}(x) = f(|x|) eps^{ijk} x^k on R^3 minus a small ball
    around the origin."""
    f_and_fprime = ex.Program((f, ex.differentiate(f, "R")))

    # alpha(x) e = e x w with w = f(R) x
    def sharp(x, e):
        x1, x2, x3 = x
        e1, e2, e3 = e
        fv = ex.evaluate(f, {"R": (x1 * x1 + x2 * x2 + x3 * x3) ** 0.5})
        w1, w2, w3 = fv * x1, fv * x2, fv * x3
        return e2 * w3 - e3 * w2, e3 * w1 - e1 * w3, e1 * w2 - e2 * w1

    # d_i alpha^{jk} e_j b_k = f'(R) / R x_i ((e x b) . x) + f(R) (e x b)_i
    def dsharp(x, e, b):
        (x1, x2, x3), (e1, e2, e3), (b1, b2, b3) = x, e, b
        c1, c2, c3 = e2 * b3 - e3 * b2, e3 * b1 - e1 * b3, e1 * b2 - e2 * b1
        R = (x1 * x1 + x2 * x2 + x3 * x3) ** 0.5
        fv, fp = ex.evaluate(f_and_fprime, {"R": R})
        g = fp / R * (c1 * x1 + c2 * x2 + c3 * x3)
        return g * x1 + fv * c1, g * x2 + fv * c2, g * x3 + fv * c3

    return PoissonStructure(
        n=3, sharp=sharp, dsharp=dsharp,
        in_domain=lambda x: _radius(np.asarray(x, dtype=float)) >= r_min,
        name="rot_invariant3",
    )
