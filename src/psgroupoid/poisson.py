"""Poisson structures given by their bivector expressions, the contractions
and their first derivatives as expressions (``pathspace`` compiles one gauge
vector field per structure and gauge parameter from them) and as programs,
and the numeric Jacobi identity (the Koszul bracket is ``pathspace.koszul_bracket_values``).

Index conventions: ``sharp(x, e)[i]`` is ``alpha^{ij}(x) e_j`` and
``dsharp(x, e, b)[i]`` is ``d_i alpha^{jk}(x) e_j b_k``, summed over j and k.
With the basis covectors, ``sharp(x, eye(n))[i][j]`` is the bivector
component ``alpha^{ij}(x)`` and ``dsharp(x, eye(n)[:, :, None],
eye(n)[:, None, :])[k][i, j]`` is the partial derivative ``d_k alpha^{ij}``.
"""

from __future__ import annotations

import functools
import itertools
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


def _variables(prefix: str, n: int) -> list:
    return [ex.Var(f"{prefix}{i + 1}") for i in range(n)]


def _sum(terms) -> ex.Expr:
    """t1 + t2 + ... in order; 0 for no terms."""
    terms = list(terms)
    return functools.reduce(ex.Add, terms) if terms else ex.Const(0.0)


@dataclass(frozen=True, eq=False)
class PoissonStructure:
    """An antisymmetric bivector field alpha on R^n and its domain.

    ``bivector`` holds alpha^{ij} for i < j, row by row ((1, 2), (1, 3),
    ..., (n-1, n)), as expressions over x1..xn: the one closed form, from
    which everything else compiles, once per structure, on first use.
    ``sharp(x, e)`` is alpha^{ij}(x) e_j and ``dsharp(x, e, b)`` is
    d_i alpha^{jk}(x) e_j b_k, each one ``ex.evaluate`` call. They take x,
    e and b as length-n sequences of components, not as rows: numbers, for
    one point, give a tuple of n floats, and arrays, for a batch
    (``sharp(X.T, E.T)`` for X and E of shape (m, n)), a tuple of n arrays
    of the components' broadcast shape. ``in_domain`` takes one point,
    shape (n,), or a batch, shape (m, n), and returns a bool or a bool
    array of shape (m,); ``None`` means all of R^n, and
    ``pathspace._check_domain`` raises ValueError on any other shape.
    Structures compare by identity."""

    n: int
    bivector: tuple
    in_domain: Optional[Callable[[np.ndarray], np.ndarray]] = None
    name: str = "poisson"
    # perfbench/tracer.py reads these names by getattr and skips them while None
    alpha = dalpha = alpha_at = dalpha_at = d2alpha = alpha_batch = dalpha_batch = None
    # no __slots__: the compiled contractions are cached on the instance, and
    # structures are weak keys of pathspace's caches

    def __post_init__(self):
        object.__setattr__(self, "bivector", tuple(self.bivector))
        object.__setattr__(self, "_names", [f"{v}{i + 1}" for v in "xeb" for i in range(self.n)])
        if len(self.bivector) != self.n * (self.n - 1) // 2:
            raise ValueError(f"a bivector on R^{self.n} needs alpha^ij for each i < j")

    def check_point(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected point of dimension {self.n}, got {x.shape}")
        if self.in_domain is not None and not self.in_domain(x):
            raise DomainError(f"point {x} outside domain of {self.name}")
        return x

    def contraction(self, x, e) -> list:
        """alpha^{ij}(x) e_j as n expressions, for sequences x and e of n
        expressions: the sum over j in order, zero components left out."""
        at, alpha = {f"x{i + 1}": xi for i, xi in enumerate(x)}, {}
        for (i, j), a in zip(itertools.combinations(range(self.n), 2), self.bivector):
            if a != ex.Const(0.0):
                alpha[i, j] = ex.substitute(a, at)
                alpha[j, i] = ex.Neg(alpha[i, j])
        return [_sum(ex.Mul(alpha[i, j], e[j]) for j in range(self.n) if (i, j) in alpha)
                for i in range(self.n)]

    def dcontraction(self, e, b) -> list:
        """d_i alpha^{jk}(x) e_j b_k as n expressions over x1..xn, for sequences
        e and b of n expressions: the sum over j < k of d_i alpha^{jk} (e_j b_k
        - e_k b_j) in order, by ``ex.differentiate``, zero partials left out."""
        pairs = itertools.combinations(range(self.n), 2)
        wedges = [ex.Sub(ex.Mul(e[j], b[k]), ex.Mul(e[k], b[j])) for j, k in pairs]
        partials = [[ex.differentiate(a, f"x{i + 1}") for a in self.bivector] for i in range(self.n)]
        return [_sum(ex.Mul(d, w) for d, w in zip(row, wedges) if d != ex.Const(0.0))
                for row in partials]

    @functools.cached_property
    def _sharp(self):
        return ex.Program(self.contraction(_variables("x", self.n), _variables("e", self.n)))

    @functools.cached_property
    def _dsharp(self):
        return ex.Program(self.dcontraction(_variables("e", self.n), _variables("b", self.n)))

    def sharp(self, x, e):
        return tuple(ex.evaluate(self._sharp, dict(zip(self._names, (*x, *e)))))

    def dsharp(self, x, e, b):
        return tuple(ex.evaluate(self._dsharp, dict(zip(self._names, (*x, *e, *b)))))


def jacobi_residual(s: PoissonStructure, x) -> float:
    """Max over (i,j,k) of the cyclic sum
    sum_l alpha^{il} d_l alpha^{jk} + cyclic; zero iff Poisson at x."""
    x, basis = s.check_point(x), np.eye(s.n)
    a = np.stack(s.sharp(x, basis))  # a[i, l] = alpha^{il}
    d = np.stack(s.dsharp(x, basis[:, :, None], basis[:, None, :]))  # d[l, j, k] = d_l alpha^{jk}
    term = np.einsum("il,ljk->ijk", a, d)
    cyc = term + np.transpose(term, (1, 2, 0)) + np.transpose(term, (2, 0, 1))
    return float(np.max(np.abs(cyc)))


# ---------------------------------------------------------------------------
# Built-in constructors

def constant_structure(matrix) -> PoissonStructure:
    A = np.array(matrix, dtype=float)
    n = len(A) if A.ndim else 0
    if A.shape != (n, n) or not np.allclose(A, -A.T, atol=1e-12):
        raise ValueError("constant structure needs an antisymmetric square matrix")
    return PoissonStructure(n=n, bivector=[ex.Const(a) for a in A[np.triu_indices(n, 1)].tolist()],
                            name="constant")


def two_domain(phi: ex.Expr) -> PoissonStructure:
    """alpha^{ij} = eps^{ij} phi(x1, x2) on R^2, eps^{12} = +1."""
    return PoissonStructure(n=2, bivector=[phi], name="two_domain")


def kirillov_kostant(f, name="kirillov_kostant") -> PoissonStructure:
    """Linear structure alpha^{ij}(x) = f^{ij}_k x^k from structure
    constants f with shape (n, n, n), indexed f[i, j, k]."""
    f = np.array(f, dtype=float)
    n = f.shape[0]
    if f.shape != (n, n, n):
        raise ValueError("structure constants must have shape (n, n, n)")
    if not np.allclose(f, -np.transpose(f, (1, 0, 2)), atol=1e-12):
        raise ValueError("structure constants must be antisymmetric in (i, j)")
    x = _variables("x", n)
    return PoissonStructure(n=n, name=name, bivector=[
        _sum(ex.Mul(ex.Const(c), x[k]) for k, c in enumerate(row) if c)
        for row in f[np.triu_indices(n, 1)].tolist()])


def _radius(x):
    """|x| over the last axis; of one point, the bits of np.linalg.norm(x)."""
    return np.sqrt(np.vecdot(x, x))


def rot_invariant3(f: ex.Expr, r_min=1e-6) -> PoissonStructure:
    """alpha^{ij}(x) = f(|x|) eps^{ijk} x^k on R^3 minus a small ball
    around the origin."""
    x1, x2, x3 = _variables("x", 3)
    fR = ex.substitute(f, {"R": ex.parse("sqrt(x1*x1 + x2*x2 + x3*x3)", ["x1", "x2", "x3"])})
    return PoissonStructure(
        n=3, bivector=[ex.Mul(fR, x3), ex.Neg(ex.Mul(fR, x2)), ex.Mul(fR, x1)],
        in_domain=lambda x: _radius(np.asarray(x, dtype=float)) >= r_min,
        name="rot_invariant3",
    )
