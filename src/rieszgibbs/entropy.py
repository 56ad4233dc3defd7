"""Von Neumann entropy for the reference density and its deformed companion.

The reference density is rho0 = e^{-beta H0}, optionally divided by Z0 so it
becomes a state.  The deformed pair

    rho     = T rho0 T^{-1}      = sum_n rho0_n       phi_n psi_n^H,
    log rho = T log(rho0) T^{-1} = sum_n log(rho0_n)  phi_n psi_n^H,

uses the similarity transform of the *Hermitian* logarithm: log rho is never
obtained from a general matrix logarithm of the non-normal rho (only the
power-series diagnostic below looks at that route, inside its convergence
domain).  The deformed entropy pairs the two biorthogonal families,

    S_rho = - sum_n  psi_n^H (rho log rho) phi_n,

with the inner product linear in its first argument; it collapses to the
standard S_rho0 = -tr(rho0 log rho0) for T = I and, in fact, equals it for
every admissible T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import numerics
from .errors import NoConvergence, NotNormalized
from .gibbs import Spectrum, partition_constants
from .numerics import CMatrix
from .riesz import RieszSystem, family


@dataclass(frozen=True)
class DensityPair:
    """rho0, its deformation and both logarithms; normalized flag per build."""

    system: RieszSystem
    spectrum: Spectrum
    normalized: bool
    z0: float
    rho0: CMatrix = field(repr=False)
    rho: CMatrix = field(repr=False)
    log_rho0: CMatrix = field(repr=False)
    log_rho: CMatrix = field(repr=False)


def build_density(
    system: RieszSystem, spectrum: Spectrum, normalize: bool = True
) -> DensityPair:
    """Assemble the density pair from the spectral data.

    Normalization divides by the truncated Z0 rather than rescaling energies;
    shifting lambda_n by log(Z0)/beta could break their positivity.
    """
    z = partition_constants(system, spectrum)
    frame, phi = family(system, "f"), family(system, "phi")
    log_eigs = -spectrum.beta * spectrum.lambdas
    eigs = np.exp(log_eigs)
    if normalize:
        eigs = eigs / z.z0
        log_eigs = log_eigs - math.log(z.z0)
    return DensityPair(
        system=system,
        spectrum=spectrum,
        normalized=normalize,
        z0=z.z0,
        rho0=frame.similarity(eigs),
        rho=phi.similarity(eigs),
        log_rho0=frame.similarity(log_eigs),
        log_rho=phi.similarity(log_eigs),
    )


def entropy_tolerance(cond_t: float) -> float:
    return 1e-11 * max(cond_t, 1.0) ** 2


def entropy_standard(pair: DensityPair) -> float:
    """S = -tr(rho0 log rho0); requires the normalized build."""
    if not pair.normalized:
        raise NotNormalized("entropy is defined for the normalized density")
    val = -numerics.trace(pair.rho0 @ pair.log_rho0)
    return float(val.real)


def entropy_generalized(pair: DensityPair) -> float:
    """S = -sum_n psi_n^H (rho log rho) phi_n, paired across the two families."""
    if not pair.normalized:
        raise NotNormalized("entropy is defined for the normalized density")
    system = pair.system
    m = pair.rho @ pair.log_rho
    val = -complex(np.sum(system.psi.conj() * numerics.matmul(m, system.phi)))
    tol = entropy_tolerance(system.cond_t)
    if abs(val.imag) > tol:
        raise NoConvergence(f"entropy imaginary part {val.imag:.3e} exceeds {tol:.3e}")
    return float(val.real)


def matrix_log_series(rho: CMatrix, terms: int) -> CMatrix:
    """Partial sum of sum_k (-1)^{k-1} (rho - I)^k / k.

    A diagnostic only: it converges to the similarity logarithm when every
    eigenvalue of rho0 lies in (0, 2), and is useless outside that domain.
    """
    rho = numerics.as_operator(rho)
    delta = rho - np.eye(rho.shape[0])
    power = np.eye(rho.shape[0], dtype=complex)
    total = np.zeros_like(delta)
    for k in range(1, terms + 1):
        power = power @ delta
        total = total + ((-1.0) ** (k - 1) / k) * power
    return total


class SummabilityRow(NamedTuple):
    gamma: float
    n: int
    partial_sum_0: float
    partial_sum_1: float
    tail_ratio: float
    converged: bool


SUMMABILITY_COLUMNS = ("gamma", "N", "partial_sum_0", "partial_sum_1", "tail_ratio", "converged")

#: tail estimate must drop below this fraction of the partial sum
_CONVERGED_REL = 1e-12


def summability_report(
    lambdas: Sequence[float], gammas: Sequence[float], n_values: Sequence[int]
) -> list[SummabilityRow]:
    """Partial sums of sum e^{-gamma lambda_n} and sum lambda_n e^{-gamma lambda_n}.

    ``lambdas`` holds lambda_0 .. lambda_{M-1} with M >= max(n_values), e.g.
    ``models.lambda_values(rule, M)``.  For each gamma and truncation N the
    row reports both partial sums, the ratio of the last two retained weights
    and a convergence flag: converged means the geometric tail estimate
    term * r/(1-r) of both series has dropped below 1e-12 of the partial sum.
    Ratios creeping toward 1 (e.g. logarithmic spectra at small gamma) never
    converge and are thereby flagged as non-decaying.
    """
    rows: list[SummabilityRow] = []
    lam = np.asarray(lambdas, dtype=float)
    for gamma in gammas:
        with np.errstate(over="ignore"):
            w = np.exp(-gamma * lam)
        s0 = np.cumsum(w)
        s1 = np.cumsum(lam * w)
        for n in sorted(n_values):
            if n >= 2 and w[n - 1] == 0.0:
                ratio = 0.0  # tail underflowed: it is zero at working precision
            elif n >= 2 and w[n - 2] > 0.0:
                ratio = float(w[n - 1] / w[n - 2])
            else:
                ratio = float("nan")
            converged = False
            if np.isfinite(ratio) and ratio < 1.0:
                tail0 = w[n - 1] * ratio / (1.0 - ratio)
                tail1 = lam[n - 1] * w[n - 1] * ratio / (1.0 - ratio)
                converged = bool(
                    tail0 <= _CONVERGED_REL * s0[n - 1] and tail1 <= _CONVERGED_REL * max(s1[n - 1], 1e-300)
                )
            rows.append(
                SummabilityRow(
                    gamma=float(gamma),
                    n=int(n),
                    partial_sum_0=float(s0[n - 1]),
                    partial_sum_1=float(s1[n - 1]),
                    tail_ratio=ratio,
                    converged=converged,
                )
            )
    return rows
