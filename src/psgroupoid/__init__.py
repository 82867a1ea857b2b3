"""Numerical symplectic groupoids of Poisson manifolds.

The package builds the phase space of paths subject to the Lie-algebroid
constraint dX + alpha(X) eta = 0, its gauge symmetry and moment maps,
and three explicitly solvable families: 2D structures eps phi(x), linear
(Lie-dual) structures, and rotation-invariant structures on R^3.
"""

from . import expr, poisson, pathspace, groupoid2d, lie_dual, radial3d

from .poisson import (
    PoissonStructure, jacobi_residual, constant_structure, two_domain,
    kirillov_kostant, rot_invariant3,
)
from .pathspace import (
    DiscretizedMorphism, TangentVector, GaugeField, gauss_residual,
    solve_gauss, gauge_vector_field, gauge_flow, symplectic_pairing,
    hamiltonian, concatenate, reverse,
)
from .groupoid2d import (
    Phi2D, Domain2D, GroupoidPoint2D, verify_axioms,
)
from .lie_dual import LieAlgebraSpec, LieGroupoidPoint, builtin_spec
from .radial3d import RadialProfile, analyze

__version__ = "0.1.0"
