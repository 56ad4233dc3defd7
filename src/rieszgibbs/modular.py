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
Omega's eigenvalues, its eigenbasis U as a ``riesz.Family`` and, read as is,
Omega^2.  Every other power Omega^a = U diag(omega^a) U^H is the
``basis.similarity`` of a phase block (``omega_powers``), uncached.  Identities
linear or bilinear in the observables are operator residuals, one product
each (per grid point for the flow), for every observable at once; only Delta,
quadratic in V, costs two N x N products per observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .dynamics import NonHermitianHamiltonian, evolve
from .errors import Singular
from .gibbs import GibbsState
from .numerics import CMatrix
from .riesz import Family

#: largest dimension for which the dense Delta oracle may be materialized
ORACLE_DIM_MAX = 6


def modular_tolerance(cond_omega: float) -> float:
    return 1e-10 * max(cond_omega, 1.0) ** 2


def modular_kms_tolerance(n: int) -> float:
    """c u N with c = 100, kept from the per-observable route it was set for.
    At z = t - i the operator bound's factors ||B||_2 = 1 and ||sigma||_2 <= 1
    (omega_j <= ||Omega||_F = 1) carry no cond(Omega); on the catalog at
    N <= 32 and exp_gen seeds 0-39 the bound reads at most 1.6e-2 of it."""
    return 100 * (np.finfo(float).eps / 2) * n


@dataclass(frozen=True)
class ModularData:
    """A state's positive nonsingular HS vector Omega with its eigenbasis.

    Attributes
    ----------
    omega : Omega = U diag(omega_j) U^H
    values : the eigenvalues, ascending omega_j > 0
    basis : U as a family (vectors U, duals U^H), so that
        ``basis.similarity(g)`` = U diag(g) U^H, of each row of an (m, N) g
    cond_omega : omega_max / omega_min
    omega_sq : Omega^2, read as the state's sandwich density sigma = K K^H / Z
        rather than rebuilt from the eigenpairs
    """

    omega: CMatrix
    values: NDArray[np.float64]
    basis: Family = field(repr=False)
    cond_omega: float
    omega_sq: CMatrix = field(repr=False)

    @property
    def dim(self) -> int:
        return self.omega.shape[0]


def modular_data(state: GibbsState) -> ModularData:
    """The unit HS vector implementing the state as (X Omega | Omega).

    Omega = |(C e^{-beta H0/2})^H| / sqrt(Z): e^{-beta H0/2} / sqrt(Z0) for
    the frame state, and C = T or (T^{-1})^H for the phi and psi states.  Its
    square is the state's sandwich density sigma = K K^H / Z, so one
    eigendecomposition sigma = U diag(mu) U^H gives Omega = U diag(sqrt(mu)) U^H
    and its eigenbasis together, and sigma itself is kept as Omega^2.  The
    1/sqrt(Z) factor is exactly what gives the vector unit HS norm.  Raises
    Singular unless every mu is positive.
    """
    sigma = numerics.herm_eig(state.sandwich_density)
    if sigma.values[0] <= 0.0:
        raise Singular(
            f"modular vector must be positive definite: smallest eigenvalue of "
            f"Omega^2 is {sigma.values[0]:.3e}"
        )
    values = np.sqrt(sigma.values)
    basis = _unitary_family(sigma.vectors)
    return ModularData(
        omega=basis.similarity(values),
        values=values,
        basis=basis,
        cond_omega=float(values[-1] / values[0]),
        omega_sq=state.sandwich_density,
    )


def _unitary_family(u: CMatrix) -> Family:
    """A unitary eigenbasis U as the family of C = U over the standard basis."""
    return Family(u, u, numerics.dagger(u))


def _powers(basis: Family, values: np.ndarray, exponents: complex | np.ndarray) -> CMatrix:
    """U diag(values^a) U^H for each exponent a: one (m, N) phase block through
    ``basis.similarity``, an (m, N, N) stack (one matrix for a scalar a)."""
    return basis.similarity(np.exp(np.multiply.outer(exponents, np.log(values))))


def omega_powers(md: ModularData, exponents: complex | np.ndarray) -> CMatrix:
    """Omega^a for each exponent a, as one phase block in Omega's eigenbasis."""
    return _powers(md.basis, md.values, exponents)


def state_residual(md: ModularData, state: GibbsState) -> float:
    """||Omega Omega^H - rho||_F, the largest |(X Omega | Omega) - omega(X)| over
    every X with ||X||_F <= 1: (X Omega | Omega) = tr(X Omega Omega^H) and
    omega(X) = tr(rho X), with rho the adjoint of the state's cached rho^H."""
    gap = md.omega @ numerics.dagger(md.omega) - numerics.dagger(state.trace_density_h)
    return numerics.frobenius(gap)


def tomita_residual(md: ModularData) -> float:
    """A bound on ||S(X Omega) - X^H Omega||_F over every X with ||X||_F <= 1:
    with S(V) = J Delta^{1/2} V = (Omega V Omega^{-1})^H, the gap is
    (Omega X (Omega Omega^{-1} - I) + (Omega - Omega^H) X)^H."""
    omega = md.omega
    gap = omega @ omega_powers(md, -1.0) - np.eye(md.dim)
    skew = omega - numerics.dagger(omega)
    return numerics.frobenius(omega) * numerics.frobenius(gap) + numerics.frobenius(skew)


def delta_apply(md: ModularData, v: CMatrix) -> CMatrix:
    """Delta V = Omega^2 V Omega^{-2}, positive on the HS space; Omega^2 is
    the dense sandwich density, Omega^{-2} comes from the eigenbasis."""
    return md.omega_sq @ v @ omega_powers(md, -2.0)


def delta_form(md: ModularData, v: CMatrix) -> float:
    """(Delta V | V) in Omega's eigenbasis: sum_jk (omega_j/omega_k)^2 |V~_jk|^2
    with V~ = U^H V U, positive for V != 0; an array of them over a stack."""
    vt = md.basis.duals_h @ v @ md.basis.vectors
    ratios = (md.values[:, None] / md.values[None, :]) ** 2
    return np.sum(ratios * np.abs(vt) ** 2, axis=(-2, -1))


def flow_unitaries(md: ModularData, t: float | np.ndarray) -> tuple[CMatrix, CMatrix]:
    """The factors u = Omega^{2it} and u^H of sigma_t(X) = u X u^H; for an array
    of m times, u is one (m, N) phase block and both are (m, N, N) stacks."""
    u = omega_powers(md, 2j * np.asarray(t))
    return u, numerics.dagger(u)


def modular_flow(md: ModularData, t: float | np.ndarray, x: CMatrix) -> CMatrix:
    """sigma_t(X) = Omega^{2it} X Omega^{-2it}, a *-automorphism for each t;
    the (m, N, N) stack of sigma_t(X) for an array of m times."""
    u, u_h = flow_unitaries(md, t)
    return u @ x @ u_h


#: Imaginary shift at which the modular two-point function closes.  With
#: Omega Hermitian, g(z) = tr(X A Y B) with A = Omega^{2iz}, B = Omega^{2-2iz};
#: at z = t - i, A = sigma u and B = u^H (u = Omega^{2it}, sigma = Omega^2), so
#: g(t - i) = omega(sigma_t(Y) X).  The opposite shift +i gives
#: A = Omega^{2it-2} and B = Omega^{4-2it} instead, which differ in general.
MODULAR_KMS_SHIFT = -1j


def verify_modular_kms(md: ModularData, t_grid: Sequence[float]) -> float:
    """A bound on max_t |g(t + MODULAR_KMS_SHIFT) - omega(sigma_t(Y) X)| over
    every X, Y with ||X||_F, ||Y||_F <= 1: the thermal boundary condition of
    the vector state at unit inverse temperature along its own modular flow.
    A Y B - sigma u Y u^H = (A - sigma u) Y B + sigma u Y (B - u^H), so each
    grid point is at most ||A - sigma u||_F ||B||_2 + ||sigma||_2 ||B - u^H||_F,
    with ||B||_2 = max_j omega_j^{Re(2 - 2iz)} and ||sigma||_2 = omega_max^2.
    The half-chain powers A, B are one phase block, the flow unitaries another."""
    t = np.asarray(t_grid, dtype=float)
    z = t + MODULAR_KMS_SHIFT
    left, right = np.split(omega_powers(md, np.concatenate([2j * z, 2.0 - 2j * z])), 2)
    u, u_h = flow_unitaries(md, t)
    norm_b = np.max(md.values[:, None] ** (2.0 + 2.0 * z.imag), axis=0)
    left_gap = numerics.frobenius(left - md.omega_sq @ u)
    return float(np.max(left_gap * norm_b + md.values[-1] ** 2 * numerics.frobenius(right - u_h)))


def delta_matrix(md: ModularData) -> CMatrix:
    """Dense N^2 x N^2 matrix of Delta on row-major flattened HS vectors.

    Heavy on memory and provided only as a small-dimension test oracle; its
    spectrum is {(omega_j / omega_k)^2}.
    """
    if md.dim > ORACLE_DIM_MAX:
        raise ValueError(f"dense Delta oracle restricted to N <= {ORACLE_DIM_MAX}")
    return np.kron(md.omega_sq, omega_powers(md, -2.0).T)


def delta_spectrum_expected(md: ModularData) -> np.ndarray:
    """Sorted {(omega_j/omega_k)^2} over all eigenvalue pairs of Omega."""
    return np.sort(((md.values[:, None] / md.values[None, :]) ** 2).ravel())


def commuting_flow_residual(
    ham: NonHermitianHamiltonian, md: ModularData, x: CMatrix, t_grid: Sequence[float]
) -> float:
    """Deformed evolution vs. twisted modular flow in the commuting case.

    When the constructing operator commutes with the reference Hamiltonian,
    Omega_phi^2 is proportional to |T^H|^2 e^{-beta H0} and the evolution
    factors through the modular flow:

        alpha^phi_t(X) = |T^H|^{2it/beta} sigma_{-t/beta}(X) |T^H|^{-2it/beta},

    with sigma the (2it)-normalized flow of Omega_phi.  Returns the largest
    Frobenius deviation of the two sides over ``t_grid``.  The twists
    |T^H|^{2it/beta} = (T T^H)^{it/beta} of the whole grid are one phase block
    in the eigenbasis of T T^H, from one eigendecomposition; meaningful only
    for commuting [T, H0].
    """
    beta, t_op = ham.spectrum.beta, ham.system.t_op
    gram = numerics.herm_eig(t_op @ numerics.dagger(t_op))
    t = np.asarray(t_grid, dtype=float)
    twist = _powers(_unitary_family(gram.vectors), gram.values, 1j * t / beta)
    rhs = twist @ modular_flow(md, -t / beta, x) @ numerics.dagger(twist)
    lhs = np.stack([evolve(ham, "phi", s, x) for s in t])
    return float(np.max(numerics.frobenius(lhs - rhs)))
