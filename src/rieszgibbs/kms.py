"""Strip functions and the twisted boundary identities of the deformed states.

For observables X, Y the two-point function

    f_{X,Y}(z) = (1/Z) tr(C^H X alpha_z(Y) C e^{-beta H0}),   0 <= Im z <= beta,

with C the constructing operator of the family (``riesz.family``: C = T for
the phi state, C = (T^{-1})^H for the psi state, C = I for the frame state)
is entire at finite dimension and matches the state on both strip boundaries,
up to a twist by M = C C^H on the shifted one:

    f(t)          = omega(X alpha_t(Y)),
    f(t + i beta) = omega(M^{-1} alpha_t(Y) M X).

For a unitary constructing operator the twist drops out and the boundary pair
is the textbook thermal condition.

Spectral contraction.  In the H0 eigenbasis (frame F, energies lambda) put
A~ = (CF)^H X (CF) and B~ = F^H C^{-1} Y C F.  Then

    f(z) = (1/Z) sum_jk u_j(z) G_jk v_k(z),        G_jk = A~_jk B~_kj,
    u_j(z) = e^{i(i beta - z) lambda_j},        v_k(z) = e^{iz lambda_k}.

The O(N^3) work (A~, B~ and the kernel G) is done once per strip function;
each grid point then costs O(N^2), and a whole grid is one matrix product.
The Boltzmann factor is merged into the phase exponents before ``exp``, so
inside the strip |u_j|, |v_k| <= 1 and nothing leaves double range.

Dense oracle.  The boundary right-hand sides take an independent route:
alpha_t(Y) is built densely from the similarity propagators C e^{+-itH0}
C^{-1}, and both states are traces against factors formed once,
omega(X E) = tr(K_real E)/Z and omega(M^{-1} E M X) = tr(K_shift E)/Z, each
O(N^2) as sum(K * E^T).  A boundary residual therefore always compares two
different evaluations of the same number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import numerics
from .dynamics import NonHermitianHamiltonian, evolve
from .gibbs import GibbsState, Spectrum, omega_trace
from .numerics import CMatrix


def kms_tolerance(cond_t: float, dim: int) -> float:
    return 1e-10 * max(cond_t, 1.0) ** 2 * dim


@dataclass(frozen=True)
class StripFunction:
    """Spectral kernel of one observable pair and one state family.

    Holds what the grid evaluation and the dense boundary oracle need, and
    nothing else.
    """

    x: CMatrix
    y: CMatrix
    spectrum: Spectrum
    partition: float
    # C F and F^H C^{-1}: the constructing operator taken on the H0 eigenbasis
    c_op: CMatrix = field(repr=False)
    c_inv: CMatrix = field(repr=False)
    # G_jk = A~_jk B~_kj
    kernel: CMatrix = field(repr=False)
    # K_real = C e^{-beta H0} C^H X,  K_shift = M X C e^{-beta H0} C^{-1}
    # (= M X C e^{-beta H0} C^H M^{-1}, with M^{-1} = (C^H)^{-1} C^{-1} cancelled)
    k_real: CMatrix = field(repr=False)
    k_shift: CMatrix = field(repr=False)

    @property
    def beta(self) -> float:
        return self.spectrum.beta


def strip_function(state: GibbsState, x: CMatrix, y: CMatrix) -> StripFunction:
    """Strip function of X, Y in the given state, over the state's family."""
    x = numerics.as_operator(x)
    y = numerics.as_operator(y)
    fam = state.family
    cf = fam.vectors
    cf_inv = numerics.dagger(fam.duals)
    cf_h = numerics.dagger(cf)
    a_tilde = cf_h @ x @ cf
    b_tilde = cf_inv @ y @ cf
    boltz_c = cf * state.weights
    return StripFunction(
        x=x,
        y=y,
        spectrum=state.spectrum,
        partition=state.partition,
        c_op=cf,
        c_inv=cf_inv,
        kernel=a_tilde * b_tilde.T,
        k_real=(boltz_c @ cf_h) @ x,
        k_shift=(cf @ cf_h) @ x @ (boltz_c @ cf_inv),
    )


def _warn_outside_strip(zs: ArrayLike, beta: float) -> None:
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    outside = zs[(zs.imag < 0.0) | (zs.imag > beta)]
    if outside.size:
        warnings.warn(
            f"{outside.size} point(s), first z = {complex(outside[0])}, lie outside "
            f"the strip 0 <= Im z <= {beta}; values grow without the thermal damping",
            stacklevel=3,
        )


def alpha_phi_z(ham: NonHermitianHamiltonian, z: complex, y: CMatrix) -> CMatrix:
    """Complex-time conjugation T e^{izH0} T^{-1} Y T e^{-izH0} T^{-1}."""
    _warn_outside_strip(z, ham.spectrum.beta)
    return evolve(ham, "phi", z, y)


def strip_values(sf: StripFunction, zs: ArrayLike) -> NDArray[np.complex128]:
    """f(z) at every point of ``zs``, as one contraction ((U @ G) * V).sum(1) / Z.

    Row m of U is u(z_m) and of V is v(z_m); the cost is O(N^2) per point.
    Warns once when any point lies outside the strip 0 <= Im z <= beta.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    _warn_outside_strip(zs, sf.beta)
    lam = sf.spectrum.lambdas
    u = np.exp(np.multiply.outer(1j * (1j * sf.beta - zs), lam))
    v = np.exp(np.multiply.outer(1j * zs, lam))
    return ((u @ sf.kernel) * v).sum(axis=1) / sf.partition


def strip_f(sf: StripFunction, z: complex) -> complex:
    """Evaluate the strip function at one point z = t + is, 0 <= s <= beta."""
    return complex(strip_values(sf, [z])[0])


def _evolved_y(sf: StripFunction, t: float) -> CMatrix:
    """alpha_t(Y) = U_t Y U_{-t}, with U_{+-t} = C e^{+-itH0} C^{-1} built densely."""
    phases = np.exp(1j * t * sf.spectrum.lambdas)
    u_fwd = (sf.c_op * phases) @ sf.c_inv
    u_bwd = (sf.c_op * phases.conj()) @ sf.c_inv
    return u_fwd @ sf.y @ u_bwd


class KmsRow(NamedTuple):
    t: float
    f_real: float
    f_imag: float
    res_real_boundary: float
    res_shifted_boundary: float


KMS_COLUMNS = KmsRow._fields


def verification_rows(sf: StripFunction, t_grid: Sequence[float]) -> list[KmsRow]:
    """f(t) and both boundary residuals at each real grid point.

    The strip values on both boundaries come from one ``strip_values`` call;
    the right-hand sides from the dense oracle, with alpha_t(Y) built once per t.
    """
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    values = strip_values(sf, np.concatenate([ts, ts + 1j * sf.beta]))
    rows = []
    for t, f_real, f_shift in zip(ts, values[: ts.size], values[ts.size :]):
        evolved_t = _evolved_y(sf, float(t)).T
        rhs_real = np.sum(sf.k_real * evolved_t) / sf.partition
        rhs_shift = np.sum(sf.k_shift * evolved_t) / sf.partition
        rows.append(
            KmsRow(
                t=float(t),
                f_real=float(f_real.real),
                f_imag=float(f_real.imag),
                res_real_boundary=float(abs(f_real - rhs_real)),
                res_shifted_boundary=float(abs(f_shift - rhs_shift)),
            )
        )
    return rows


class BoundaryResiduals(NamedTuple):
    max_real: float
    max_shifted: float


def boundary_residuals(rows: Sequence[KmsRow]) -> BoundaryResiduals:
    """Largest residual on each boundary over a set of verification rows."""
    return BoundaryResiduals(
        max_real=max((r.res_real_boundary for r in rows), default=0.0),
        max_shifted=max((r.res_shifted_boundary for r in rows), default=0.0),
    )


def verify_kms_like(sf: StripFunction, t_grid: Sequence[float]) -> BoundaryResiduals:
    """Boundary residuals of the strip function's family over a real grid."""
    return boundary_residuals(verification_rows(sf, t_grid))


def cauchy_mean_residual(
    sf: StripFunction, z0: complex, radius: float | None = None, nodes: int = 32
) -> float:
    """|mean of f over a circle around z0 - f(z0)|, an interior-analyticity probe.

    The circle must stay inside the open strip; the default radius is half the
    distance to the nearer boundary (capped at 0.5).
    """
    z0 = complex(z0)
    margin = min(z0.imag, sf.beta - z0.imag)
    if margin <= 0.0:
        raise ValueError("z0 must lie strictly inside the strip")
    if radius is None:
        radius = min(0.5 * margin, 0.5)
    if radius >= margin:
        raise ValueError("circle leaves the strip")
    angles = 2.0 * np.pi * np.arange(nodes) / nodes
    values = strip_values(sf, np.append(z0 + radius * np.exp(1j * angles), z0))
    return float(abs(values[:-1].mean() - values[-1]))


def nonhermitian_density_residual(state: GibbsState, x: CMatrix) -> float:
    """Deviation of omega(X) from tr(e^{-beta H} M X)/Z, with M = C C^H.

    e^{-beta H} is the similarity transform C e^{-beta H0} C^{-1} (for the phi
    state T e^{-beta H0} T^{-1}); the identity rewrites the state as a trace
    against the non-Hermitian density.
    """
    c_op = state.family.c_op
    exp_beta_h = state.family.similarity(state.weights)
    twist = c_op @ numerics.dagger(c_op)
    val = np.trace(exp_beta_h @ twist @ x) / state.partition
    return abs(complex(val) - omega_trace(state, x))


def dual_strip_residual(
    sf_psi: StripFunction, sf_dual: StripFunction, t_grid: Sequence[float]
) -> float:
    """Agreement of the psi-state strip function with the phi-state one of the
    dual system, on both boundaries over a real grid."""
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    zs = np.concatenate([ts, ts + 1j * sf_psi.beta])
    diff = np.abs(strip_values(sf_psi, zs) - strip_values(sf_dual, zs))
    return float(np.max(diff, initial=0.0))
