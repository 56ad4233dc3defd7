"""Modular structure on the Hilbert-Schmidt space of N x N matrices.

The HS space carries the inner product (S|T) = tr(T^H S); its vectors ARE
plain N x N matrices and are never flattened.  Observables act by left
multiplication X V, bounded companions by right multiplication V A.

A positive nonsingular unit vector Omega (one per Gibbs state) determines

    J(V)      = V^H                         (modular conjugation),
    Delta(V)  = Omega^2 V Omega^{-2}        (modular operator),
    sigma_t(X)= Omega^{2it} X Omega^{-2it}  (modular flow),

and the closure of X Omega -> X^H Omega factors as J Delta^{1/2}.  All maps
are applied as two-sided multiplications; a dense N^2 x N^2 materialization
of Delta exists only as a small-N test oracle.

Cost model.  ``modular_data`` does the O(N^3) factorization once per state:
one eigendecomposition of the sandwich density sigma = K K^H / Z gives
Omega's eigenpairs, and sigma itself is read as Omega^2, the dense side of
Delta, of the modular KMS condition and of the Delta oracle.  Every other
power Omega^a is formed from the eigenpairs once per ``ModularData`` and
exponent, on first use: Omega^{-1} for S, Omega^{-2} for Delta, and one
flow unitary u = Omega^{2it} per time t, shared by every observable flowed
at that t.  Each observable then costs a fixed number of N x N products
(two for sigma_t(X) = u X u^H, two for Delta V), and each point of the
modular two-point function two half-chain products and one O(N^2) dot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import numerics
from .dynamics import NonHermitianHamiltonian, evolve
from .errors import Singular
from .gibbs import GibbsState
from .numerics import CMatrix, HermitianEig

#: largest dimension for which the dense Delta oracle may be materialized
ORACLE_DIM_MAX = 6


def modular_tolerance(cond_omega: float) -> float:
    return 1e-10 * max(cond_omega, 1.0) ** 2


@dataclass(frozen=True)
class ModularData:
    """A state's positive nonsingular HS vector Omega with its eigendecomposition.

    Attributes
    ----------
    omega : Omega = U diag(omega_j) U^H
    eig : the eigenpairs, ascending omega_j > 0
    cond_omega : omega_max / omega_min
    omega_sq : Omega^2, read as the state's sandwich density sigma = K K^H / Z
        rather than rebuilt from the eigenpairs
    powers : Omega^a by exponent a, each formed from the eigenpairs by
        ``omega_power`` on first use
    """

    omega: CMatrix
    eig: HermitianEig = field(repr=False)
    cond_omega: float
    omega_sq: CMatrix = field(repr=False)
    powers: dict[complex, CMatrix] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def dim(self) -> int:
        return self.omega.shape[0]


def modular_data(state: GibbsState) -> ModularData:
    """The unit HS vector implementing the state as (X Omega | Omega).

    Omega = |(C e^{-beta H0/2})^H| / sqrt(Z): e^{-beta H0/2} / sqrt(Z0) for
    the frame state, and C = T or (T^{-1})^H for the phi and psi states.  Its
    square is the state's sandwich density sigma = K K^H / Z, so one
    eigendecomposition sigma = U diag(mu) U^H gives Omega = U diag(sqrt(mu)) U^H
    and its eigenpairs together, and sigma itself is kept as Omega^2.  The
    1/sqrt(Z) factor is exactly what gives the vector unit HS norm.  Raises
    Singular unless every mu is positive.
    """
    sigma = numerics.herm_eig(state.sandwich_density)
    if sigma.values[0] <= 0.0:
        raise Singular(
            f"modular vector must be positive definite: smallest eigenvalue of "
            f"Omega^2 is {sigma.values[0]:.3e}"
        )
    eig = HermitianEig(values=np.sqrt(sigma.values), vectors=sigma.vectors)
    omega = (eig.vectors * eig.values) @ numerics.dagger(eig.vectors)
    return ModularData(
        omega=omega,
        eig=eig,
        cond_omega=float(eig.values[-1] / eig.values[0]),
        omega_sq=state.sandwich_density,
    )


def omega_power(md: ModularData, exponent: complex) -> CMatrix:
    """Omega^a for complex a through the eigenpairs, formed once per exponent."""
    power = md.powers.get(exponent)
    if power is None:
        w = np.exp(exponent * np.log(md.eig.values.astype(complex)))
        power = (md.eig.vectors * w) @ numerics.dagger(md.eig.vectors)
        md.powers[exponent] = power
    return power


def state_via_vector(v: CMatrix, omega: CMatrix) -> complex:
    """omega(X) = (X Omega | Omega) from the vector V = X Omega."""
    return numerics.hs_inner(v, omega)


def tomita_s(md: ModularData, v: CMatrix) -> CMatrix:
    """S(V) = J(Delta^{1/2} V) with Delta^{1/2} V = Omega V Omega^{-1}.

    On vectors of the form V = X Omega this is X^H Omega, the defining
    involution.
    """
    return numerics.dagger(md.omega @ v @ omega_power(md, -1.0))


def delta_apply(md: ModularData, v: CMatrix) -> CMatrix:
    """Delta V = Omega^2 V Omega^{-2}, positive on the HS space; Omega^2 is
    the dense sandwich density, Omega^{-2} comes from the eigenpairs."""
    return md.omega_sq @ v @ omega_power(md, -2.0)


def delta_form(md: ModularData, v: CMatrix) -> float:
    """(Delta V | V) in Omega's eigenbasis: sum_jk (omega_j/omega_k)^2 |V~_jk|^2
    with V~ = U^H V U, positive for V != 0; an array of them over a stack."""
    vt = numerics.dagger(md.eig.vectors) @ v @ md.eig.vectors
    ratios = (md.eig.values[:, None] / md.eig.values[None, :]) ** 2
    return np.sum(ratios * np.abs(vt) ** 2, axis=(-2, -1))


def modular_flow(md: ModularData, t: float, x: CMatrix) -> CMatrix:
    """sigma_t(X) = Omega^{2it} X Omega^{-2it}, a *-automorphism for each t."""
    u = omega_power(md, 2j * t)
    return u @ x @ numerics.dagger(u)


def _two_point(md: ModularData, x: CMatrix, y: CMatrix, z: complex) -> complex:
    """g(z) = (X sigma_z(Y) Omega | Omega), merged so factors stay bounded.

    By cyclicity g(z) = tr(Omega X Omega^{2iz} Y Omega^{-2iz} Omega)
    = tr((X Omega^{2iz}) (Y Omega^{2-2iz})): two half-chains and one O(N^2)
    dot.  For Im z in [-1, 0] both exponents have real part in [0, 2], so
    no inverse power of Omega is formed.
    """
    left = x @ omega_power(md, 2j * z)
    right = y @ omega_power(md, 2.0 - 2j * z)
    return complex(np.einsum("ij,ji->", left, right))


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
    temperature with respect to its own modular flow.  The left side takes
    its powers of Omega from the eigenpairs; the right side reads the state
    as omega(A) = tr(sigma A) with the dense sandwich density sigma = Omega^2.
    """
    res = 0.0
    for t in t_grid:
        t = float(t)
        rhs = numerics.hs_inner(modular_flow(md, t, y) @ x, md.omega_sq)
        res = max(res, abs(_two_point(md, x, y, t + MODULAR_KMS_SHIFT) - rhs))
    return res


def delta_matrix(md: ModularData) -> CMatrix:
    """Dense N^2 x N^2 matrix of Delta on row-major flattened HS vectors.

    Heavy on memory and provided only as a small-dimension test oracle; its
    spectrum is {(omega_j / omega_k)^2}.
    """
    if md.dim > ORACLE_DIM_MAX:
        raise ValueError(f"dense Delta oracle restricted to N <= {ORACLE_DIM_MAX}")
    return np.kron(md.omega_sq, omega_power(md, -2.0).T)


def delta_spectrum_expected(md: ModularData) -> np.ndarray:
    """Sorted {(omega_j/omega_k)^2} over all eigenvalue pairs of Omega."""
    vals = md.eig.values
    ratios = (vals[:, None] / vals[None, :]) ** 2
    return np.sort(ratios.ravel())


def commuting_flow_residual(
    ham: NonHermitianHamiltonian, md: ModularData, x: CMatrix, t_grid: Sequence[float]
) -> float:
    """Deformed evolution vs. twisted modular flow in the commuting case.

    When the constructing operator commutes with the reference Hamiltonian,
    Omega_phi^2 is proportional to |T^H|^2 e^{-beta H0} and the evolution
    factors through the modular flow:

        alpha^phi_t(X) = |T^H|^{2it/beta} sigma_{-t/beta}(X) |T^H|^{-2it/beta},

    with sigma the (2it)-normalized flow of Omega_phi.  Returns the largest
    Frobenius deviation of the two sides over ``t_grid``, from one
    eigendecomposition of T T^H; meaningful only for commuting [T, H0].
    """
    beta = ham.spectrum.beta
    t_op = ham.system.t_op
    # |T^H|^{2it/beta} = (T T^H)^{it/beta}
    gram = numerics.herm_eig(t_op @ numerics.dagger(t_op))
    log_gram = np.log(gram.values.astype(complex))
    res = 0.0
    for t in t_grid:
        phases = np.exp((1j * t / beta) * log_gram)
        twist = numerics.matmul(gram.vectors * phases, numerics.dagger(gram.vectors))
        rhs = twist @ modular_flow(md, -t / beta, x) @ numerics.dagger(twist)
        lhs = evolve(ham, "phi", t, x)
        res = max(res, numerics.frobenius(lhs - rhs))
    return res
