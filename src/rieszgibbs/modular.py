"""Modular structure on the Hilbert-Schmidt space of N x N matrices.

The HS space carries the inner product (S|T) = tr(T^H S); its vectors ARE
plain N x N matrices and are never flattened.  Observables act by left
multiplication, bounded companions by right multiplication:

    pi_left(X, V) = X V,      pi_right(A, V) = V A.

A positive nonsingular unit vector Omega (one per Gibbs state) determines

    J(V)      = V^H                         (modular conjugation),
    Delta(V)  = Omega^2 V Omega^{-2}        (modular operator),
    sigma_t(X)= Omega^{2it} X Omega^{-2it}  (modular flow),

and the closure of X Omega -> X^H Omega factors as J Delta^{1/2}.  All maps
are applied as two-sided multiplications; a dense N^2 x N^2 materialization
of Delta exists only as a small-N test oracle.

The flow above uses the exponent pair (2it, -2it) as derived from
Delta = Omega^2 (.) Omega^{-2}; the halved variant Omega^{it} X Omega^{-it}
is exposed separately as ``modular_flow_halved`` since both normalizations
circulate and they differ by a rescaling of time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import numerics
from .dynamics import NonHermitianHamiltonian, alpha_phi
from .errors import DimensionMismatch, Singular
from .gibbs import Spectrum, family_partition
from .numerics import CMatrix, HermitianEig
from .riesz import RieszSystem, family

#: largest dimension for which the dense Delta oracle may be materialized
ORACLE_DIM_MAX = 8


def modular_tolerance(cond_omega: float) -> float:
    return 1e-10 * max(cond_omega, 1.0) ** 2


@dataclass(frozen=True)
class ModularData:
    """A positive nonsingular HS vector with its cached eigendecomposition."""

    omega: CMatrix
    eig: HermitianEig = field(repr=False)
    cond_omega: float

    @property
    def dim(self) -> int:
        return self.omega.shape[0]


def modular_data(omega: CMatrix) -> ModularData:
    omega = numerics.as_operator(omega)
    eig = numerics.herm_eig(omega)
    if eig.values[0] <= 0.0:
        raise Singular("modular vector must be positive definite")
    return ModularData(
        omega=omega, eig=eig, cond_omega=float(eig.values[-1] / eig.values[0])
    )


def omega_power(md: ModularData, exponent: complex) -> CMatrix:
    """Omega^a for complex a through the cached eigenpairs."""
    w = np.exp(exponent * np.log(md.eig.values.astype(complex)))
    return (md.eig.vectors * w) @ numerics.dagger(md.eig.vectors)


def pi_left(x: CMatrix, v: CMatrix) -> CMatrix:
    """Left-multiplication representation (multiplicative)."""
    x = np.asarray(x, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if x.shape[1] != v.shape[0]:
        raise DimensionMismatch(f"cannot left-multiply {v.shape} by {x.shape}")
    return x @ v


def pi_right(a: CMatrix, v: CMatrix) -> CMatrix:
    """Right-multiplication representation (anti-multiplicative)."""
    a = np.asarray(a, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if v.shape[1] != a.shape[0]:
        raise DimensionMismatch(f"cannot right-multiply {v.shape} by {a.shape}")
    return v @ a


class OmegaVectors(NamedTuple):
    omega0: CMatrix
    omega_phi: CMatrix
    omega_psi: CMatrix


def omega_vectors(system: RieszSystem, spectrum: Spectrum) -> OmegaVectors:
    """The three unit HS vectors implementing the states as (X Omega | Omega).

    Omega = |(C e^{-beta H0/2})^H| / sqrt(Z) for the frame (C = I, giving
    e^{-beta H0/2} / sqrt(Z0)), phi (C = T) and psi (C = (T^{-1})^H) families.
    The 1/sqrt(Z) factors are exactly what gives each vector unit HS norm.
    """
    half = np.exp(-0.5 * spectrum.beta * spectrum.lambdas)
    f_h = numerics.dagger(system.frame)

    def omega(kind: str) -> CMatrix:
        fam = family(system, kind)
        factor = (fam.vectors * half) @ f_h
        return numerics.abs_of_adjoint(factor) / np.sqrt(family_partition(fam, spectrum))

    return OmegaVectors(*(omega(k) for k in ("f", "phi", "psi")))


def state_via_vector(x: CMatrix, omega: CMatrix) -> complex:
    """(pi_left(X) Omega | Omega) = tr(Omega X Omega) for Hermitian Omega."""
    return complex(numerics.hs_inner(pi_left(x, omega), omega))


def tomita_s(md: ModularData, v: CMatrix) -> CMatrix:
    """S(V) = J(Delta^{1/2} V) with Delta^{1/2} V = Omega V Omega^{-1}.

    On vectors of the form V = X Omega this is X^H Omega, the defining
    involution.
    """
    omega_inv = omega_power(md, -1.0)
    return numerics.dagger(md.omega @ v @ omega_inv)


def delta_apply(md: ModularData, v: CMatrix) -> CMatrix:
    """Delta V = Omega^2 V Omega^{-2}, positive on the HS space."""
    return md.omega @ md.omega @ v @ omega_power(md, -2.0)


def modular_flow(md: ModularData, t: float, x: CMatrix) -> CMatrix:
    """sigma_t(X) = Omega^{2it} X Omega^{-2it}, a *-automorphism for each t."""
    u = omega_power(md, 2j * t)
    return u @ x @ numerics.dagger(u)


def modular_flow_halved(md: ModularData, t: float, x: CMatrix) -> CMatrix:
    """Time-rescaled variant Omega^{it} X Omega^{-it}."""
    u = omega_power(md, 1j * t)
    return u @ x @ numerics.dagger(u)


def _two_point(md: ModularData, x: CMatrix, y: CMatrix, z: complex) -> complex:
    """g(z) = (X sigma_z(Y) Omega | Omega), merged so factors stay bounded.

    Written as tr((Omega X) Omega^{2iz} Y Omega^{1-2iz}), so only two Omega
    powers are formed; for Im z in [-1/2, 0] both carry nonnegative real
    exponents and cannot blow up.
    """
    chain = (md.omega @ x) @ omega_power(md, 2j * z) @ y @ omega_power(md, 1.0 - 2j * z)
    return complex(np.trace(chain))


#: Imaginary shift at which the modular two-point function closes.  With
#: Omega Hermitian, g(z) = tr(Omega X Omega^{2iz} Y Omega^{-2iz} Omega), and at
#: z = t - i the powers become Omega^{2it+2} and Omega^{-2it-2}, so by
#: cyclicity g(t - i) = tr(Omega^2 Omega^{2it} Y Omega^{-2it} X)
#: = omega(sigma_t(Y) X).  The opposite shift +i gives
#: tr(Omega^{-2} sigma_t(Y) Omega^4 X) instead, which differs in general.
MODULAR_KMS_SHIFT = -1j


def verify_modular_kms(
    md: ModularData, x: CMatrix, y: CMatrix, t_grid: Sequence[float]
) -> float:
    """max_t |g(t + MODULAR_KMS_SHIFT) - omega(sigma_t(Y) X)| along the modular flow.

    The vector state satisfies the thermal boundary condition at unit inverse
    temperature with respect to its own modular flow.
    """
    res = 0.0
    for t in t_grid:
        t = float(t)
        rhs = state_via_vector(modular_flow(md, t, y) @ x, md.omega)
        res = max(res, abs(_two_point(md, x, y, t + MODULAR_KMS_SHIFT) - rhs))
    return res


def commutant_residual(a: CMatrix, x: CMatrix, v: CMatrix, w: CMatrix) -> float:
    """Weak-commutation defect |(pi_right(A) pi_left(X) V | W) - (pi_right(A) V | pi_left(X^H) W)|.

    Right multiplications commute with left multiplications, so this vanishes
    for every sample; it is the finite-dimensional shadow of the commutant
    identification.
    """
    lhs = numerics.hs_inner(pi_right(a, pi_left(x, v)), w)
    rhs = numerics.hs_inner(pi_right(a, v), pi_left(numerics.dagger(x), w))
    return abs(lhs - rhs)


def delta_matrix(md: ModularData) -> CMatrix:
    """Dense N^2 x N^2 matrix of Delta on row-major flattened HS vectors.

    Heavy on memory and provided only as a small-dimension test oracle; its
    spectrum is {(omega_j / omega_k)^2}.
    """
    if md.dim > ORACLE_DIM_MAX:
        raise ValueError(f"dense Delta oracle restricted to N <= {ORACLE_DIM_MAX}")
    omega_sq = md.omega @ md.omega
    omega_neg2 = omega_power(md, -2.0)
    return np.kron(omega_sq, omega_neg2.T)


def delta_spectrum_expected(md: ModularData) -> np.ndarray:
    """Sorted {(omega_j/omega_k)^2} over all eigenvalue pairs of Omega."""
    vals = md.eig.values
    ratios = (vals[:, None] / vals[None, :]) ** 2
    return np.sort(ratios.ravel())


def commuting_flow_residual(
    ham: NonHermitianHamiltonian, md: ModularData, t: float, x: CMatrix
) -> float:
    """Deformed evolution vs. twisted modular flow in the commuting case.

    When the constructing operator commutes with the reference Hamiltonian,
    Omega_phi^2 is proportional to |T^H|^2 e^{-beta H0} and the evolution
    factors through the modular flow:

        alphaphi_t(X) = |T^H|^{2it/beta} sigma_{-t/beta}(X) |T^H|^{-2it/beta},

    with sigma the (2it)-normalized flow of Omega_phi.  Returns the Frobenius
    deviation of the two sides; meaningful only for commuting [T, H0].
    """
    beta = ham.spectrum.beta
    abs_t = numerics.abs_of_adjoint(ham.system.t_op)
    abs_eig = numerics.herm_eig(abs_t, check=False)
    phases = np.exp((2j * t / beta) * np.log(abs_eig.values.astype(complex)))
    twist = (abs_eig.vectors * phases) @ numerics.dagger(abs_eig.vectors)
    rhs = twist @ modular_flow(md, -t / beta, x) @ numerics.dagger(twist)
    lhs = alpha_phi(ham, t, x)
    return numerics.frobenius(lhs - rhs)
