"""Biorthogonal systems built from a unitary frame and an invertible operator.

A system is assembled from an orthonormal frame (the columns f_n of a unitary
matrix) and an invertible constructing operator T.  The two derived families

    phi_n = T f_n,          psi_n = (T^{-1})^H f_n,

are biorthogonal, ``(phi_n | psi_m) = delta_nm``, and everything downstream
(Gibbs functionals, deformed evolutions, modular data) is expressed through
them.  At finite dimension every domain condition the unbounded theory needs
is automatic, so construction only has to police conditioning and unitarity.

Each downstream object is built for one *family*, fixed by its constructing
operator C = I, T or (T^{-1})^H (``family``); a function g of H0 carried by
the family is the similarity C g(H0) C^{-1} = sum_n g(lambda_n) v_n d_n^H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from . import numerics
from .errors import DimensionMismatch, NoConvergence, NotUnitary
from .numerics import CMatrix

#: frame unitarity tolerance, scaled by dimension
FRAME_TOL = 1e-12


def biorthogonality_tolerance(cond_t: float) -> float:
    """Accuracy demanded of (phi_n|psi_m) - delta_nm; degrades with cond(T)."""
    return 1e-10 * max(cond_t, 1.0)


@dataclass(frozen=True)
class RieszSystem:
    """Frame, constructing operator and the derived biorthogonal families.

    Attributes
    ----------
    dim : truncation dimension N
    frame : unitary matrix whose columns are the f_n
    t_op, t_inv : the constructing operator and its inverse
    phi, psi : matrices whose columns are phi_n and psi_n
    cond_t : 2-norm condition number of t_op
    """

    dim: int
    frame: CMatrix
    t_op: CMatrix
    t_inv: CMatrix
    phi: CMatrix
    psi: CMatrix
    cond_t: float


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def build_system(frame: CMatrix, t_op: CMatrix) -> RieszSystem:
    """Assemble a RieszSystem, verifying biorthogonality at build time.

    Raises NotUnitary when the frame misses ``||F^H F - I||_F <= 1e-12 N``,
    Singular when T cannot be inverted within the condition cap, and
    NoConvergence if the built families miss the biorthogonality tolerance
    (which cannot happen for a well-conditioned T unless the kernel is broken).
    """
    frame = numerics.as_operator(frame)
    t_op = numerics.as_operator(t_op)
    n = frame.shape[0]
    if t_op.shape != (n, n):
        raise DimensionMismatch(f"frame is {n}x{n} but T is {t_op.shape}")
    defect = numerics.frobenius(numerics.dagger(frame) @ frame - np.eye(n))
    if defect > FRAME_TOL * n:
        raise NotUnitary(f"frame unitarity defect {defect:.3e} exceeds {FRAME_TOL * n:.1e}")
    t_inv = numerics.inverse(t_op)
    cond_t = numerics.cond(t_op)
    phi = t_op @ frame
    psi = numerics.dagger(t_inv) @ frame
    sys_ = RieszSystem(
        dim=n,
        frame=frame.copy(),
        t_op=t_op.copy(),
        t_inv=t_inv,
        phi=phi,
        psi=psi,
        cond_t=cond_t,
    )
    _freeze(sys_.frame, sys_.t_op, sys_.t_inv, sys_.phi, sys_.psi)
    dev = verify_biorthogonality(sys_)
    tol = biorthogonality_tolerance(cond_t)
    if dev > tol:
        raise NoConvergence(f"biorthogonality deviation {dev:.3e} exceeds {tol:.3e}")
    return sys_


def identity_system(n: int) -> RieszSystem:
    """The self-dual system phi_n = psi_n = e_n."""
    eye = np.eye(n, dtype=complex)
    return build_system(eye, eye)


def dual_system(system: RieszSystem) -> RieszSystem:
    """System built from the dual constructing operator (T^{-1})^H.

    Its phi family is the original psi family and vice versa; rebuilding from
    scratch (including a fresh inversion) keeps duality checks meaningful.
    """
    return build_system(system.frame, numerics.dagger(system.t_inv))


FamilyKind = Literal["f", "phi", "psi"]


class Family(NamedTuple):
    """Constructing operator C of one family, its inverse and both column sets.

    ``vectors`` = C F and ``duals`` = (C^{-1})^H F are biorthogonal, so a
    function of H0 carried by the family, C g(H0) C^{-1}, is ``similarity(g)``
    for g given by its values g(lambda_n).
    """

    c_op: CMatrix
    c_inv: CMatrix
    vectors: CMatrix
    duals: CMatrix

    def similarity(self, g: np.ndarray) -> CMatrix:
        """C F diag(g) F^H C^{-1} = (vectors * g) @ duals^H."""
        return (self.vectors * g) @ numerics.dagger(self.duals)


def family(system: RieszSystem, kind: FamilyKind) -> Family:
    """The frame ("f", C = I), phi (C = T) or psi (C = (T^{-1})^H) family.

    The psi family is the phi family of ``dual_system`` (C = (T^{-1})^H with
    inverse T^H), read off the existing arrays without a fresh inversion.
    """
    if kind == "f":
        eye = np.eye(system.dim, dtype=complex)
        return Family(eye, eye, system.frame, system.frame)
    if kind == "phi":
        return Family(system.t_op, system.t_inv, system.phi, system.psi)
    if kind == "psi":
        return Family(
            numerics.dagger(system.t_inv), numerics.dagger(system.t_op), system.psi, system.phi
        )
    raise ValueError(f"family kind must be 'f', 'phi' or 'psi', got {kind!r}")


def verify_biorthogonality(system: RieszSystem) -> float:
    """max_nm |(phi_n | psi_m) - delta_nm|; zero for an exact pair."""
    gram = numerics.dagger(system.psi) @ system.phi
    return float(np.max(np.abs(gram - np.eye(system.dim))))


class NaturalnessResult(NamedTuple):
    is_natural: bool
    max_deviation: float


def check_naturalness(
    system: RieszSystem, given_psi: CMatrix, tol: float | None = None
) -> NaturalnessResult:
    """Does a proposed dual family satisfy the defining identity T^H psi_n = f_n?

    Measures max_n ||T^H psi_n - f_n|| by multiplication, never through the
    inverse that built the system's own psi family.
    """
    given = np.asarray(given_psi, dtype=complex)
    if given.shape != (system.dim, system.dim):
        raise DimensionMismatch(
            f"expected a {system.dim}x{system.dim} dual family, got {given.shape}"
        )
    if tol is None:
        tol = biorthogonality_tolerance(system.cond_t)
    defect = numerics.dagger(system.t_op) @ given - system.frame
    dev = float(np.max(np.linalg.norm(defect, axis=0)))
    return NaturalnessResult(is_natural=dev <= tol, max_deviation=dev)
