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

Cost model.  The trace and sandwich orderings are densities formed once per
state, on first use, in O(N^3), and stored as their adjoints:

    trace    rho^H = C ((F diag(w)) (C F)^H) / Z,
    sandwich sigma = K K^H / Z,   K = (C F) diag(w^{1/2}) = C e^{-beta H0/2} F,

(sigma is its own adjoint by its formula), both complex128 even for a real
family, so that no dot casts them again.  K omits the trailing unitary F^H
of C e^{-beta H0/2} = (C F) diag(w^{1/2}) F^H, which K K^H does not see.
sigma is also Omega^2 for the state's modular vector, whose eigenpairs
``modular.modular_data`` reads off sigma's.  ``omega_trace`` evaluates an
observable in one contiguous O(N^2) dot, tr(rho X) = (X | rho^H), and a
(m, N, N) stack of them in one numpy call.  Every functional here is linear
in X, so two of them agree for every X exactly when their densities agree:
``suites.check_gibbs`` compares densities, never values, and
||rho_1 - rho_2||_F is the largest gap over observables of unit Frobenius
norm.  The defining sum ``omega_sum`` stays an O(N^3) evaluation per
observable, for the sweep's two; as a density, (C F) diag(w) (C F)^H / Z,
it is the trace density regrouped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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
        if np.exp(-self.beta * lam[0]) == 0.0:
            raise BadModel("every Boltzmann weight e^{-beta lambda_n} underflows to 0")
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


def family_partition(vectors: CMatrix, spectrum: Spectrum) -> float:
    """Z = sum_n e^{-beta lambda_n} ||v_n||^2 over a family's columns v_n = C f_n,
    the normalizer of the family's state."""
    return float(np.sum(spectrum.weights() * np.sum(np.abs(vectors) ** 2, axis=0)))


def partition_constants(system: RieszSystem, spectrum: Spectrum) -> PartitionConstants:
    """Z0 = sum e^{-beta lambda_n} ||f_n||^2 (= sum e^{-beta lambda_n}), Zphi and Zpsi,
    read off the system's column sets without forming a family."""
    check_dims(system, spectrum)
    return PartitionConstants(
        *(family_partition(v, spectrum) for v in (system.frame, system.phi, system.psi))
    )


@dataclass(frozen=True)
class GibbsState:
    """One of the three normalized functionals with its thermal data.

    ``gibbs_state`` is the only place that forms this data; strip functions,
    Omega vectors and the density comparisons of ``suites.check_gibbs`` read
    it from here.  The route densities, e^{-beta H} and the twist are formed
    on first use and cached, so a state that never evaluates a route never
    pays for it.
    """

    partition: float
    family: Family = field(repr=False)
    spectrum: Spectrum = field(repr=False)
    frame: CMatrix = field(repr=False)
    # Boltzmann weights e^{-beta lambda_n}
    weights: NDArray[np.float64] = field(repr=False)

    @cached_property
    def trace_density_h(self) -> CMatrix:
        """rho^H, the adjoint of the density rho with omega(X) = tr(rho X)."""
        return _trace_density(self)

    @cached_property
    def sandwich_density(self) -> CMatrix:
        """sigma = K K^H / Z, the sandwich ordering's density and its own adjoint."""
        return _sandwich_density(self)

    @cached_property
    def boltzmann(self) -> CMatrix:
        """e^{-beta H} = C e^{-beta H0} C^{-1}, the family's similarity of the weights."""
        return self.family.similarity(self.weights)

    @cached_property
    def twist(self) -> CMatrix:
        """M = C C^H, the twist of the shifted KMS boundary."""
        return self.family.c_op @ numerics.dagger(self.family.c_op)


def _trace_density(state: GibbsState) -> CMatrix:
    right = (state.frame * state.weights) @ numerics.dagger(state.family.vectors)
    return np.asarray(state.family.c_op @ right / state.partition, dtype=complex)


def _sandwich_density(state: GibbsState) -> CMatrix:
    half = np.exp(-0.5 * state.spectrum.beta * state.spectrum.lambdas)
    k = state.family.vectors * half
    return np.asarray(k @ numerics.dagger(k) / state.partition, dtype=complex)


def gibbs_state(system: RieszSystem, spectrum: Spectrum, kind: FamilyKind) -> GibbsState:
    """The functional of one family; its route densities are formed on first use.
    A real family's state reads F from the (then real) frame family."""
    check_dims(system, spectrum)
    fam = family(system, kind)
    return GibbsState(
        partition=family_partition(fam.vectors, spectrum),
        family=fam,
        spectrum=spectrum,
        frame=family(system, "f").vectors if fam.real else system.frame,
        weights=spectrum.weights(),
    )


def _observable(state: GibbsState, x: CMatrix) -> CMatrix:
    """``x`` as an array, rejected unless it is N x N (or a stack of them) for the state's N."""
    x = np.asarray(x)
    n = state.spectrum.dim
    if x.ndim < 2 or x.shape[-2:] != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} observable, got shape {x.shape}")
    return x


def omega_sum(state: GibbsState, x: CMatrix) -> complex:
    """Weighted sum over the family: (1/Z) sum_n w_n (X v_n | v_n), O(N^3) per X."""
    x = _observable(state, x)
    v = state.family.vectors
    quad = np.einsum("in,...in->...n", v.conj(), numerics.matmul(x, v))
    return np.sum(state.weights * quad, axis=-1) / state.partition


def omega_trace(state: GibbsState, x: CMatrix) -> complex:
    """Trace form of the same functional, e.g. (1/Zphi) tr(T^H X T e^{-beta H0}),
    as tr(rho X) = (X | rho^H) against the cached rho^H: O(N^2) per X."""
    return numerics.hs_inner(_observable(state, x), state.trace_density_h)


class FaithfulnessWitness(NamedTuple):
    min_eigenvalue: float
    density: CMatrix


def faithfulness_witness(state: GibbsState) -> FaithfulnessWitness:
    """Density operator rho with omega(X) = tr(X rho) and its smallest eigenvalue.

    rho is the state's trace density, C e^{-beta H0} C^H / Z (for the phi kind
    T e^{-beta H0} T^H / Zphi); the functional is faithful exactly when rho is
    positive definite.  The witness symmetrizes the cached rho^H into a copy
    to remove roundoff.
    """
    rho = state.trace_density_h
    rho = 0.5 * (rho + numerics.dagger(rho))
    eig = numerics.herm_eig(rho)
    return FaithfulnessWitness(min_eigenvalue=float(eig.values[0]), density=rho)


def state_tolerance(cond_t: float, dim: int) -> float:
    """Error allowance for double-precision trace chains."""
    return 1e-11 * max(cond_t, 1.0) ** 2 * dim
