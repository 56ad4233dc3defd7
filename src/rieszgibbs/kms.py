"""Strip functions and the twisted boundary identities of the deformed states.

For observables X, Y the two-point function

    f_{X,Y}(z) = (1/Z) tr(C^H X alpha_z(Y) C e^{-beta H0}),   0 <= Im z <= beta,

with C the constructing operator of the family (``riesz.family``: C = T for
the phi state, C = (T^{-1})^H for the psi state, C = I for the frame state)
matches the state on both strip boundaries, up to a twist by M = C C^H on the
shifted one:

    f(t)          = omega(X alpha_t(Y)),
    f(t + i beta) = omega(M^{-1} alpha_t(Y) M X).

For a unitary constructing operator the twist drops out and the boundary pair
is the textbook thermal condition.  At finite N, f is a finite exponential
sum in z (below), entire whatever its kernel: no check claims analyticity.

Spectral contraction.  In the H0 eigenbasis (frame F, energies lambda) put
A~ = (CF)^H X (CF) and B~ = F^H C^{-1} Y C F.  Then

    f(z) = (1/Z) sum_jk u_j(z) G_jk v_k(z),        G_jk = A~_jk B~_kj,
    u_j(z) = e^{i(i beta - z) lambda_j},        v_k(z) = e^{iz lambda_k}.

The strip function holds its ``GibbsState``, from which beta, the lambdas,
Z, the weights and the family (C, C F, F^H C^{-1}) are read.  The O(N^3)
work (A~, B~ and the kernel G) is done once per strip function;
each grid point then costs O(N^2), and a whole grid is one matrix product.
The Boltzmann factor is merged into the phase exponents before ``exp``, so
inside the strip |u_j|, |v_k| <= 1 and nothing leaves double range.

Dense oracle.  The boundary right-hand sides take an independent route:
alpha_t(Y) is built densely from the similarity propagators
U_{+-t} = C e^{+-itH0} C^{-1} (``Family.similarity`` of the phases), and both
states are traces against factors formed once, omega(X E) = tr(K_real E)/Z
and omega(M^{-1} E M X) = tr(K_shift E)/Z; K_shift reads e^{-beta H} and M
from the state's cache.  Each trace is one contiguous O(N^2) dot,
tr(K E) = (E | K^H) = ``numerics.hs_inner(E, K^H)``, against K^H stored once.
One propagator pair serves a grid point and its mirror, alpha_t(Y) =
U_t Y U_{-t} and alpha_{-t}(Y) = U_{-t} Y U_t, and the rows of both deformed
states: psi's propagators are the adjoints of phi's, U^psi_t = (U^phi_{-t})^H,
so alpha^psi_t(Y) = alpha^phi_t(Y^H)^H.  A mirror pair costs 8 products for
its four rows and 2 propagators, or 1 for a real family, whose U_{-t} is
conj(U_t) (``Family.similarity_pair``), formed for ``numerics.block_size(N)``
distinct |t| at a time as one stack.  A boundary residual therefore always
compares two different evaluations of the same number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
from numpy.typing import ArrayLike, NDArray

from . import numerics
from .gibbs import GibbsState
from .numerics import CMatrix


def kms_tolerance(cond_t: float, dim: int) -> float:
    return 1e-10 * max(cond_t, 1.0) ** 2 * dim


@dataclass(frozen=True)
class StripFunction:
    """Spectral kernel of one observable pair in one state.

    The state carries beta, the lambdas, Z, the weights and the family; the
    strip function adds the observables and the kernel and nothing else.
    """

    state: GibbsState = field(repr=False)
    x: CMatrix
    y: CMatrix
    # G_jk = A~_jk B~_kj
    kernel: CMatrix = field(repr=False)

    @property
    def beta(self) -> float:
        return self.state.spectrum.beta


def strip_function(state: GibbsState, x: CMatrix, y: CMatrix) -> StripFunction:
    """Strip function of X, Y in the given state, over the state's family."""
    x = numerics.as_operator(x)
    y = numerics.as_operator(y)
    cf, cf_inv = state.family.vectors, state.family.duals_h
    a_tilde = numerics.matmul(numerics.dagger(cf), x, cf)
    b_tilde = numerics.matmul(cf_inv, y, cf)
    return StripFunction(state=state, x=x, y=y, kernel=a_tilde * b_tilde.T)


def strip_values(sf: StripFunction, zs: ArrayLike) -> NDArray[np.complex128]:
    """f(z) at every point of ``zs``, as one contraction ((U @ G) * V).sum(1) / Z.

    Row m of U is u(z_m) and of V is v(z_m); the cost is O(N^2) per point.
    Warns once when any point lies outside the strip 0 <= Im z <= beta.
    """
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    outside = zs[(zs.imag < 0.0) | (zs.imag > sf.beta)]
    if outside.size:
        warnings.warn(
            f"{outside.size} point(s), first z = {complex(outside[0])}, lie outside "
            f"the strip 0 <= Im z <= {sf.beta}; values grow without the thermal damping",
            stacklevel=2,
        )
    lam = sf.state.spectrum.lambdas
    u = np.exp(np.multiply.outer(1j * (1j * sf.beta - zs), lam))
    v = np.exp(np.multiply.outer(1j * zs, lam))
    return ((u @ sf.kernel) * v).sum(axis=1) / sf.state.partition


def _trace_factors(sf: StripFunction) -> tuple[CMatrix, CMatrix]:
    """K_real = C e^{-beta H0} C^H X and K_shift = M X e^{-beta H}
    (= M X C e^{-beta H0} C^H M^{-1}, with M^{-1} = (C^H)^{-1} C^{-1} cancelled)."""
    state = sf.state
    cf = state.family.vectors
    k_real = numerics.matmul((cf * state.weights) @ numerics.dagger(cf), sf.x)
    return k_real, numerics.matmul(state.twist, sf.x, state.boltzmann)


class KmsRow(NamedTuple):
    t: float
    f_real: float
    f_imag: float
    res_real_boundary: float
    res_shifted_boundary: float


KMS_COLUMNS = KmsRow._fields


def _check_adjoint(sf: StripFunction, adjoint: StripFunction) -> None:
    """Raise ValueError unless ``adjoint`` is over the adjoint family of ``sf``'s
    (columns F^H C^{-1} and C F swapped and adjoined) with the same energies."""
    fam, adj = sf.state.family, adjoint.state.family
    if not (
        np.array_equal(adj.vectors, numerics.dagger(fam.duals_h))
        and np.array_equal(adj.duals_h, numerics.dagger(fam.vectors))
        and np.array_equal(adjoint.state.spectrum.lambdas, sf.state.spectrum.lambdas)
    ):
        raise ValueError(
            "the second strip function must be over the adjoint family of the first"
        )


def verification_rows(
    sf: StripFunction, t_grid: Sequence[float], adjoint: StripFunction | None = None
) -> list[list[KmsRow]]:
    """f(t) and both boundary residuals at each real grid point: one row list
    for ``sf`` and one for ``adjoint``, when given.

    ``adjoint`` is a strip function over the adjoint family of ``sf``'s (phi
    and psi are each other's, f is its own); ValueError otherwise.  The strip
    values come from ``strip_values``, the right-hand sides from the dense
    oracle with the propagators U_{+-t} of ``sf``'s family only: the adjoint
    family's are U'_t = (U_{-t})^H, so its rows read alpha'_t(Y') =
    alpha_t(Y'^H)^H.  One pair serves t and -t, one block of pairs is live at
    a time, and a repeated point is evaluated once; a real family forms U_{-t}
    as conj(U_t).
    """
    strips = [sf]
    if adjoint is not None:
        _check_adjoint(sf, adjoint)
        strips.append(adjoint)
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    # the O(M N) strip grids go before the N x N trace factors are formed
    values = [strip_values(s, np.concatenate([ts, ts + 1j * s.beta])) for s in strips]
    # (operand to evolve, trace factors, conjugate the trace?): tr(K E) = (E | K^H)
    # against K^H stored contiguous for sf, tr(K' W^H) = conj((W | K')) for the adjoint
    operands = [(sf.y, np.stack([numerics.dagger(k) for k in _trace_factors(sf)]), False)]
    if adjoint is not None:
        operands.append((numerics.dagger(adjoint.y), np.stack(_trace_factors(adjoint)), True))
    fam, lam = sf.state.family, sf.state.spectrum.lambdas
    # each |t| forms its pair at its first grid point t0 (0.0 and -0.0 are one
    # point), and the pair serves -t0 too when the grid holds it
    points = ts.tolist()
    t0 = np.array(list({abs(t): t for t in reversed(points)}.values()))
    mirrored = np.array([t != 0.0 and -t in points for t in t0.tolist()], dtype=bool)
    # rhs[strip, point, k]: the trace against factor k at each grid point
    rhs = np.zeros((len(strips), ts.size, 2), dtype=complex)
    size = numerics.block_size(sf.state.spectrum.dim)
    for lo in range(0, t0.size, size):
        at = slice(lo, lo + size)
        u_fwd, u_bwd = fam.similarity_pair(np.exp(1j * t0[at, None] * lam))
        sel = mirrored[at]
        mirror = (u_bwd, u_fwd) if sel.all() else (u_bwd[sel], u_fwd[sel])  # copy if must
        for times, (left, right) in ((t0[at], (u_fwd, u_bwd)), (-t0[at][sel], mirror)):
            # evaluation e serves every grid point equal to times[e]
            e, point = np.nonzero(times[:, None] == ts)
            for into, (y, factors, conj) in zip(rhs, operands):
                traces = numerics.hs_inner((left @ y @ right)[:, None], factors)
                into[point] = (traces.conj() if conj else traces)[e]
    out = []
    for strip, strip_vals, strip_rhs in zip(strips, values, rhs):
        # divided part by part, as Python divides a complex by a float
        strip_rhs = (strip_rhs.view(np.float64) / strip.state.partition).view(complex)
        f = strip_vals.reshape(2, ts.size).T
        res = numerics.modulus(f - strip_rhs)
        columns = (f[:, 0].real, f[:, 0].imag, res[:, 0], res[:, 1])
        out.append([KmsRow(*row) for row in zip(points, *(c.tolist() for c in columns))])
    return out


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
    return boundary_residuals(verification_rows(sf, t_grid)[0])


def dual_strip_residual(
    sf_psi: StripFunction, sf_dual: StripFunction, t_grid: Sequence[float]
) -> float:
    """Agreement of the psi-state strip function with the phi-state one of the
    dual system, on both boundaries over a real grid."""
    ts = np.asarray(t_grid, dtype=float).reshape(-1)
    zs = np.concatenate([ts, ts + 1j * sf_psi.beta])
    diff = np.abs(strip_values(sf_psi, zs) - strip_values(sf_dual, zs))
    return float(np.max(diff, initial=0.0))
