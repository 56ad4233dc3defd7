"""Finite-dimensional thermal and modular structure of biorthogonal systems.

Build a system from a unitary frame and an invertible constructing operator,
attach a strictly positive spectrum, and every derived object -- deformed
Gibbs functionals, non-normal Heisenberg evolutions, the generalized entropy,
twisted thermal boundary identities and the Hilbert-Schmidt modular data --
comes with machine-checkable residuals certifying the identities it obeys.

Names are imported from the module that defines them, for example
``from rieszgibbs.riesz import build_system``.
"""

__version__ = "0.1.0"
