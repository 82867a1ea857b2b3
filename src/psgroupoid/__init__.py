"""Numerical symplectic groupoids of Poisson manifolds.

The package builds the phase space of paths subject to the Lie-algebroid
constraint dX + alpha(X) eta = 0, its gauge symmetry and moment maps,
and three explicitly solvable families: 2D structures eps phi(x), linear
(Lie-dual) structures, and rotation-invariant structures on R^3.

Import the modules by name (``from psgroupoid import expr``); the
package root re-exports nothing.
"""

__version__ = "0.1.0"
