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
observables, each as ``evolve(ham, which, t, X)`` with ``which`` the family
kind "f", "phi" or "psi":

    alpha^0_t(X)   = e^{itH0} X e^{-itH0}          (a *-automorphism group)
    alpha^phi_t(X) = e^{itH}  X e^{-itH}
    alpha^psi_t(X) = e^{itHd} X e^{-itHd}

The deformed pair are automorphism groups that exchange under the adjoint,
``alpha^phi_t(X)^H = alpha^psi_t(X^H)``; individually they do not respect the
star operation.

Eigenbasis side.  ``spectral_evolution`` takes X~ = F^H C^{-1} X C F once per
family and observable, with C F and F^H C^{-1} read from the system's cached
family; then alpha_t(X) = C F (P_t o X~) F^H C^{-1} with
P_t[j,k] = e^{it(lambda_j - lambda_k)}, an O(N^2) phase table and two products
per time, and no propagator.  A real family (``riesz.family``) forms the
propagator pair of ``evolve`` as one similarity, U_{-t} = conj(U_t); a
complex one as two.

Root.  Every propagator is U_t = V e^{it Lambda} D with V = C F and
D = F^H C^{-1}, so each identity of the three groups follows from
E = D V - I being zero; ``group_law_bound`` bounds the group law for every
real s, t and every X from ||E||_F, one product D V per family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .gibbs import Spectrum, check_dims
from .numerics import CMatrix
from .riesz import Family, FamilyKind, RieszSystem, family


@dataclass(frozen=True)
class NonHermitianHamiltonian:
    """H = T H0 T^{-1} and its adjoint companion over one system and spectrum.

    The generators H0, H and H^dag are each formed on first use and cached, so
    a caller that only evolves never pays for them.
    """

    system: RieszSystem
    spectrum: Spectrum

    @cached_property
    def h0(self) -> CMatrix:
        return family(self.system, "f").similarity(self.spectrum.lambdas)

    @cached_property
    def h(self) -> CMatrix:
        return family(self.system, "phi").similarity(self.spectrum.lambdas)

    @cached_property
    def h_dag(self) -> CMatrix:
        return family(self.system, "psi").similarity(self.spectrum.lambdas)


def hamiltonian(system: RieszSystem, spectrum: Spectrum) -> NonHermitianHamiltonian:
    check_dims(system, spectrum)
    return NonHermitianHamiltonian(system=system, spectrum=spectrum)


def propagator(ham: NonHermitianHamiltonian, which: FamilyKind, t: complex) -> CMatrix:
    """U_t = C e^{itH0} C^{-1} of one evolution, for real or complex t."""
    return family(ham.system, which).similarity(np.exp(1j * t * ham.spectrum.lambdas))


def evolve(ham: NonHermitianHamiltonian, which: FamilyKind, t: float, x: CMatrix) -> CMatrix:
    """U_t X U_{-t} with the propagator of ``which``, for real t only.

    U_{-t} is the similarity of the conjugate phases, one conjugation of U_t
    for a real family.  A non-real t raises ValueError: for it the conjugate
    phases would silently give U_z X conj(U_z), not U_z X U_{-z}.
    """
    if not np.isreal(t):
        raise ValueError(f"evolve takes a real time, got t = {t}")
    phases = np.exp(1j * t * ham.spectrum.lambdas)
    u_fwd, u_bwd = family(ham.system, which).similarity_pair(phases)
    return u_fwd @ x @ u_bwd


def generator_of(ham: NonHermitianHamiltonian, which: FamilyKind) -> CMatrix:
    """C H0 C^{-1}: H0, H or H^dag, as cached on the Hamiltonian."""
    return {"f": ham.h0, "phi": ham.h, "psi": ham.h_dag}[which]


class SpectralEvolution(NamedTuple):
    """alpha_{t_1 + ... + t_m}(X) for real times, in the H0 eigenbasis.

    Called with t_1, ..., t_m it gives C F (P o X~) F^H C^{-1}, where
    P[j,k] = p_j conj(p_k) and p is the product of the phase vectors
    e^{i t_m lambda}: ``alpha(s, t)`` is alpha_s(alpha_t(X)) with the phases
    composed.  Compare it with the dense ``evolve``, never with another
    eigenbasis form.
    """

    x: CMatrix
    generator: CMatrix
    family: Family
    x_tilde: CMatrix  # F^H C^{-1} X C F
    lambdas: NDArray[np.float64]

    def __call__(self, *ts: float) -> CMatrix:
        p = np.prod([np.exp(1j * t * self.lambdas) for t in ts], axis=0)
        fam = self.family
        phased = np.multiply.outer(p, p.conj()) * self.x_tilde
        return numerics.matmul(fam.vectors, phased, fam.duals_h)


def spectral_evolution(
    ham: NonHermitianHamiltonian, which: FamilyKind, x: CMatrix
) -> SpectralEvolution:
    """X under the evolution ``which``, with X~ = F^H C^{-1} X C F formed once."""
    fam = family(ham.system, which)
    x_tilde = numerics.matmul(fam.duals_h, x, fam.vectors)
    return SpectralEvolution(x, generator_of(ham, which), fam, x_tilde, ham.spectrum.lambdas)


def generator_residuals(alpha: SpectralEvolution, t_steps: Sequence[float]) -> list[float]:
    """||(alpha_t(X) - X)/t - i[G, X]||_F at each step t, with alpha_t(X) the
    eigenbasis side and G the dense generator.

    Shrinks linearly in t for smooth X; vanishes (to roundoff) when X commutes
    with the generator.
    """
    if min(t_steps) <= 0.0:
        raise ValueError("t_step must be positive")
    g, x = alpha.generator, alpha.x
    commutator = 1j * (numerics.matmul(g, x) - numerics.matmul(x, g))
    return [numerics.frobenius((alpha(t) - x) / t - commutator) for t in t_steps]


def group_law_bound(ham: NonHermitianHamiltonian) -> tuple[float, float]:
    """(kappa^2 e (2 + e), kappa): a bound on ||alpha_s(alpha_t(X)) - alpha_{s+t}(X)||_F
    for every real s and t, each of the three evolutions and every X with
    ||X||_F <= 1, from the families' own arrays V = C F and D = F^H C^{-1}.

    With e_t = diag(e^{it lambda}) and E = D V - I, U_s U_t = V e_s (I + E) e_t D
    = U_{s+t} + V e_s E e_t D, and likewise U_{-t} U_{-s}.  Let e be the largest
    ||E||_F over the families (>= ||E||_2) and kappa >= ||V||_2 ||D||_2; then
    ||U_r||_2 <= kappa and ||V e_s E e_t D||_2 <= kappa e, so expanding
    (U_{s+t} + A) X (U_{-s-t} + B) leaves ||A X U + U X B + A X B||_F
    <= kappa^2 e (2 + e).  For kappa: D = (I + E) V^{-1} and V^{-1} = F^{-1} C^{-1}
    give ||V||_2 ||D||_2 <= (1 + e) cond(C) cond(F), where cond(C) is 1 or
    cond(T), and cond(F)^2 <= (1 + e_f)/(1 - e_f) since F^H F = I + E_f has its
    eigenvalues within e_f = ||E_f||_F of 1.  One product D V per family.
    """
    eye = np.eye(ham.system.dim)
    defects = {}
    for which in ("f", "phi", "psi"):
        fam = family(ham.system, which)
        defects[which] = numerics.frobenius(numerics.matmul(fam.duals_h, fam.vectors) - eye)
    e, e_f = max(defects.values()), defects["f"]
    kappa = max(ham.system.cond_t, 1.0) * (1.0 + e) * np.sqrt((1.0 + e_f) / (1.0 - e_f))
    return kappa**2 * e * (2.0 + e), kappa


def spectrum_residual(ham: NonHermitianHamiltonian) -> float:
    """max_n |eig_n(H) - lambda_n| with eigenvalues sorted by real part.

    The general (non-Hermitian) eigenvalues are computed as an independent
    oracle; the similarity H = T H0 T^{-1} forces them onto the real spectrum.
    H goes in as complex128 for every family, so one LAPACK solver serves all.
    """
    eigs = np.linalg.eigvals(ham.h.astype(complex))
    eigs = eigs[np.argsort(eigs.real)]
    return float(np.max(np.abs(eigs - ham.spectrum.lambdas)))


def eigenvector_residual(ham: NonHermitianHamiltonian) -> float:
    """Largest of ||H phi_n - lambda_n phi_n|| and ||H^dag psi_n - lambda_n psi_n||."""
    lam = ham.spectrum.lambdas
    r_phi = numerics.matmul(ham.h, ham.system.phi) - ham.system.phi * lam
    r_psi = numerics.matmul(ham.h_dag, ham.system.psi) - ham.system.psi * lam
    return float(
        max(np.max(np.linalg.norm(r_phi, axis=0)), np.max(np.linalg.norm(r_psi, axis=0)))
    )


def generator_tolerance(cond_t: float, lambdas: NDArray[np.float64]) -> float:
    return 1e-10 * max(cond_t, 1.0) * float(np.max(lambdas))
