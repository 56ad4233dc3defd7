"""Gibbs functionals for the frame family and its two deformed companions.

Given a spectrum of strictly positive energies lambda_n at inverse temperature
beta, the reference Hamiltonian is H0 = F diag(lambda) F^H.  Three normalized
positive functionals are realized, indexed by which family carries the
Boltzmann weights:

    kind "f"  : omega(X) = (1/Z0)   sum_n e^{-beta lambda_n} (X f_n  | f_n)
    kind "phi": omega(X) = (1/Zphi) sum_n e^{-beta lambda_n} (X phi_n|phi_n)
    kind "psi": omega(X) = (1/Zpsi) sum_n e^{-beta lambda_n} (X psi_n|psi_n)

Each admits an equivalent trace form, e.g. for the phi kind
``omega(X) = (1/Zphi) tr(T^H X T e^{-beta H0})``, and the agreement of the two
evaluation routes is one of the identities this package certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import numerics
from .errors import BadModel, DimensionMismatch
from .numerics import CMatrix
from .riesz import Family, FamilyKind, RieszSystem, family


@dataclass(frozen=True)
class Spectrum:
    """Strictly positive energies in ascending order plus inverse temperature."""

    lambdas: NDArray[np.float64]
    beta: float

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        if lam.ndim != 1 or lam.size == 0:
            raise BadModel("spectrum must be a nonempty 1-D array")
        if not np.all(np.isfinite(lam)):
            raise BadModel("spectrum must be finite")
        if np.min(lam) <= 0.0:
            raise BadModel("spectrum must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise BadModel("spectrum must be ascending")
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise BadModel("inverse temperature must be positive")
        lam = lam.copy()
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def dim(self) -> int:
        return int(self.lambdas.size)

    def weights(self) -> NDArray[np.float64]:
        """Boltzmann weights e^{-beta lambda_n}, all in (0, 1) since beta lambda_n > 0."""
        return np.exp(-self.beta * self.lambdas)


def check_dims(system: RieszSystem, spectrum: Spectrum) -> None:
    """Raise DimensionMismatch unless the system and the spectrum share N."""
    if system.dim != spectrum.dim:
        raise DimensionMismatch(
            f"system dimension {system.dim} != spectrum length {spectrum.dim}"
        )


class PartitionConstants(NamedTuple):
    z0: float
    z_phi: float
    z_psi: float


def family_partition(fam: Family, spectrum: Spectrum) -> float:
    """Z = sum_n e^{-beta lambda_n} ||C f_n||^2, the normalizer of the family's state."""
    return float(np.sum(spectrum.weights() * np.sum(np.abs(fam.vectors) ** 2, axis=0)))


def partition_constants(system: RieszSystem, spectrum: Spectrum) -> PartitionConstants:
    """Z0 = sum e^{-beta lambda_n} ||f_n||^2 (= sum e^{-beta lambda_n}), Zphi and Zpsi."""
    check_dims(system, spectrum)
    return PartitionConstants(
        *(family_partition(family(system, k), spectrum) for k in ("f", "phi", "psi"))
    )


@dataclass(frozen=True)
class GibbsState:
    """One of the three normalized functionals with its thermal data.

    ``gibbs_state`` is the only place that forms this data; strip functions,
    Omega vectors and the ratio/density residuals read it from here.
    """

    kind: FamilyKind
    partition: float
    family: Family = field(repr=False)
    spectrum: Spectrum = field(repr=False)
    # Boltzmann weights e^{-beta lambda_n} and the trace-form factors
    weights: NDArray[np.float64] = field(repr=False)
    left: CMatrix = field(repr=False)
    right_boltzmann: CMatrix = field(repr=False)
    half_factor: CMatrix = field(repr=False)

    def __call__(self, x: CMatrix) -> complex:
        return omega_sum(self, x)


def gibbs_state(system: RieszSystem, spectrum: Spectrum, kind: FamilyKind) -> GibbsState:
    """The functional of one family, with trace-form factors C^H, C e^{-beta H0}
    and C e^{-beta H0/2} (the last two formed as (C F) diag(.) F^H)."""
    check_dims(system, spectrum)
    fam = family(system, kind)
    f_h = numerics.dagger(system.frame)
    w = spectrum.weights()
    return GibbsState(
        kind=kind,
        partition=family_partition(fam, spectrum),
        family=fam,
        spectrum=spectrum,
        weights=w,
        left=numerics.dagger(fam.c_op),
        right_boltzmann=(fam.vectors * w) @ f_h,
        half_factor=(fam.vectors * np.exp(-0.5 * spectrum.beta * spectrum.lambdas)) @ f_h,
    )


def omega_sum(state: GibbsState, x: CMatrix) -> complex:
    """Weighted sum over the family: (1/Z) sum_n w_n (X v_n | v_n)."""
    v = state.family.vectors
    quad = np.einsum("in,in->n", v.conj(), x @ v)
    return complex(np.sum(state.weights * quad) / state.partition)


def omega_trace(state: GibbsState, x: CMatrix) -> complex:
    """Trace form of the same functional, e.g. (1/Zphi) tr(T^H X T e^{-beta H0})."""
    return complex(np.trace(state.left @ x @ state.right_boltzmann) / state.partition)


def omega_trace_sandwich(state: GibbsState, x: CMatrix) -> complex:
    """Sandwich ordering (1/Z) tr((C e^{-beta H0/2})^H X (C e^{-beta H0/2}))."""
    k = state.half_factor
    return complex(np.trace(numerics.dagger(k) @ x @ k) / state.partition)


def omega_ratio_residual(state_phi: GibbsState, state_f: GibbsState, x: CMatrix) -> float:
    """|omega_phi(X) - (Z0/Zphi) omega_f(T^H X T)|, zero in exact arithmetic."""
    pulled = state_phi.left @ x @ state_phi.family.c_op
    lhs = omega_sum(state_phi, x)
    rhs = (state_f.partition / state_phi.partition) * omega_trace(state_f, pulled)
    return abs(lhs - rhs)


class FaithfulnessWitness(NamedTuple):
    min_eigenvalue: float
    density: CMatrix


def faithfulness_witness(state: GibbsState) -> FaithfulnessWitness:
    """Density operator rho with omega(X) = tr(X rho) and its smallest eigenvalue.

    rho = C e^{-beta H0} C^H / Z (for the phi kind T e^{-beta H0} T^H / Zphi);
    the functional is faithful exactly when rho is positive definite.  The
    construction keeps rho Hermitian by symmetrizing roundoff.
    """
    rho = state.right_boltzmann @ state.left / state.partition
    rho = 0.5 * (rho + numerics.dagger(rho))
    eig = numerics.herm_eig(rho)
    return FaithfulnessWitness(min_eigenvalue=float(eig.values[0]), density=rho)


def state_tolerance(cond_t: float, dim: int) -> float:
    """Error allowance for double-precision trace chains."""
    return 1e-11 * max(cond_t, 1.0) ** 2 * dim
