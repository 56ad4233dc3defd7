"""Heisenberg evolutions for the reference and deformed Hamiltonians.

The deformed Hamiltonian is the similarity transform H = T H0 T^{-1} with
adjoint companion H^dag = (T^H)^{-1} H0 T^H; both share the real spectrum of
H0 while H itself is non-normal.  The propagators are *defined* through the
same similarity,

    e^{itH}     = T e^{itH0} T^{-1},
    e^{itH^dag} = (T^H)^{-1} e^{itH0} T^H,

never through a general dense matrix exponential: each is the spectral sum
C e^{itH0} C^{-1} = sum_n e^{it lambda_n} v_n d_n^H over the biorthogonal
columns of its family (``riesz.family``; the frame family for H0, the phi
family for H, the psi family for H^dag).  Three one-parameter groups act on
observables, each as ``evolve(ham, which, t, X)`` with ``which`` = "0", "phi"
or "psi":

    alpha^0_t(X)   = e^{itH0} X e^{-itH0}          (a *-automorphism group)
    alpha^phi_t(X) = e^{itH}  X e^{-itH}
    alpha^psi_t(X) = e^{itHd} X e^{-itHd}

The deformed pair are automorphism groups that exchange under the adjoint,
``alpha^phi_t(X)^H = alpha^psi_t(X^H)``; individually they do not respect the
star operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .gibbs import Spectrum, check_dims
from .numerics import CMatrix
from .riesz import Family, RieszSystem, family

Evolution = Literal["0", "phi", "psi"]


@dataclass(frozen=True)
class NonHermitianHamiltonian:
    """H = T H0 T^{-1} and its adjoint companion, with cached spectral data."""

    system: RieszSystem
    spectrum: Spectrum
    h0: CMatrix = field(repr=False)
    h: CMatrix = field(repr=False)
    h_dag: CMatrix = field(repr=False)


def hamiltonian(system: RieszSystem, spectrum: Spectrum) -> NonHermitianHamiltonian:
    check_dims(system, spectrum)
    lam = spectrum.lambdas
    return NonHermitianHamiltonian(
        system=system,
        spectrum=spectrum,
        h0=family(system, "f").similarity(lam),
        h=family(system, "phi").similarity(lam),
        h_dag=family(system, "psi").similarity(lam),
    )


def _family(ham: NonHermitianHamiltonian, which: Evolution) -> Family:
    # the reference evolution "0" is carried by the frame family
    return family(ham.system, "f" if which == "0" else which)


def propagator(ham: NonHermitianHamiltonian, which: Evolution, t: complex) -> CMatrix:
    """U_t = C e^{itH0} C^{-1} of one evolution, for real or complex t."""
    return _family(ham, which).similarity(np.exp(1j * t * ham.spectrum.lambdas))


def evolve(ham: NonHermitianHamiltonian, which: Evolution, t: complex, x: CMatrix) -> CMatrix:
    """U_t X U_{-t} with the propagator of ``which``."""
    return propagator(ham, which, t) @ x @ propagator(ham, which, -t)


def generator_of(ham: NonHermitianHamiltonian, which: Evolution) -> CMatrix:
    """C H0 C^{-1}: H0, H or H^dag, as ``hamiltonian`` stored them."""
    return {"0": ham.h0, "phi": ham.h, "psi": ham.h_dag}[which]


def generator_residual(
    ham: NonHermitianHamiltonian, which: Evolution, x: CMatrix, t_step: float
) -> float:
    """||(alpha_t(X) - X)/t - i[G, X]||_F for the first-order difference quotient.

    Shrinks linearly in t_step for smooth X; vanishes (to roundoff) when X
    commutes with the generator.
    """
    if t_step <= 0.0:
        raise ValueError("t_step must be positive")
    g = generator_of(ham, which)
    quotient = (evolve(ham, which, t_step, x) - x) / t_step
    commutator = 1j * (g @ x - x @ g)
    return numerics.frobenius(quotient - commutator)


def spectrum_residual(ham: NonHermitianHamiltonian) -> float:
    """max_n |eig_n(H) - lambda_n| with eigenvalues sorted by real part.

    The general (non-Hermitian) eigenvalues are computed as an independent
    oracle; the similarity H = T H0 T^{-1} forces them onto the real spectrum.
    """
    eigs = np.linalg.eigvals(ham.h)
    eigs = eigs[np.argsort(eigs.real)]
    return float(np.max(np.abs(eigs - ham.spectrum.lambdas)))


def eigenvector_residual(ham: NonHermitianHamiltonian) -> float:
    """Largest of ||H phi_n - lambda_n phi_n|| and ||H^dag psi_n - lambda_n psi_n||."""
    lam = ham.spectrum.lambdas
    r_phi = ham.h @ ham.system.phi - ham.system.phi * lam
    r_psi = ham.h_dag @ ham.system.psi - ham.system.psi * lam
    return float(
        max(np.max(np.linalg.norm(r_phi, axis=0)), np.max(np.linalg.norm(r_psi, axis=0)))
    )


def generator_tolerance(cond_t: float, lambdas: NDArray[np.float64]) -> float:
    return 1e-10 * max(cond_t, 1.0) * float(np.max(lambdas))
