"""Biorthogonal systems built from a unitary frame and an invertible operator.

A system is assembled from an orthonormal frame (the columns f_n of a unitary
matrix) and an invertible constructing operator T.  The two derived families

    phi_n = T f_n,          psi_n = (T^{-1})^H f_n,

are biorthogonal, ``(phi_n | psi_m) = delta_nm``, and everything downstream
(Gibbs functionals, deformed evolutions, modular data) is expressed through
them.  At finite dimension every domain condition the unbounded theory needs
is automatic, so construction only has to police conditioning and unitarity.
When neither the frame nor T has an imaginary part, the system is real: its
frame, T, T^{-1}, phi and psi are float64, and T is factored, inverted and
checked with real LAPACK and real GEMMs.  Any other system is complex128.

Each downstream object is built for one *family*, fixed by its constructing
operator C = I, T or (T^{-1})^H (``family``); a function g of H0 carried by
the family is the similarity C g(H0) C^{-1} = sum_n g(lambda_n) v_n d_n^H.
Each family is formed once per system, on first use, and holds C, the
columns v_n of C F and the rows d_n^H of F^H C^{-1}; propagators, Gibbs
states and strip functions read them from there rather than copying them.
A family whose three arrays have no imaginary part is stored as float64 in
their place: then every product with it is a real GEMM (``numerics.matmul``)
and C g(H0) C^{-1} is real for real g, conj(C g(H0) C^{-1}) for conj(g).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
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

    The five arrays share one dtype: float64 for a real system, complex128
    otherwise (``build_system``).

    Attributes
    ----------
    dim : truncation dimension N
    frame : unitary matrix whose columns are the f_n
    t_op, t_inv : the constructing operator and its inverse
    phi, psi : matrices whose columns are phi_n and psi_n
    cond_t, sigma_min_t : 2-norm condition number and smallest singular value
        of t_op, from the SVD that guards its inversion
    pair_deviation : max_nm |(phi_n | psi_m) - delta_nm|, measured when the
        system is built
    families : the families by kind, each formed by ``family`` on first use
    """

    dim: int
    frame: CMatrix
    t_op: CMatrix
    t_inv: CMatrix
    phi: CMatrix
    psi: CMatrix
    cond_t: float
    sigma_min_t: float
    families: dict[FamilyKind, Family] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @cached_property
    def pair_deviation(self) -> float:
        return verify_biorthogonality(self)


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def build_system(frame: CMatrix, t_op: CMatrix) -> RieszSystem:
    """Assemble a RieszSystem, verifying biorthogonality at build time.

    The system is real, every array float64, when neither ``frame`` nor
    ``t_op`` has a nonzero imaginary part, whatever their dtypes; otherwise
    both are cast to complex128.

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
    real = not (np.any(frame.imag) or np.any(t_op.imag))
    # fresh C-ordered copies, which the system freezes
    frame, t_op = (
        np.array(a.real if real else a, dtype=float if real else complex, order="C")
        for a in (frame, t_op)
    )
    defect = numerics.frobenius(numerics.dagger(frame) @ frame - np.eye(n))
    if defect > FRAME_TOL * n:
        raise NotUnitary(f"frame unitarity defect {defect:.3e} exceeds {FRAME_TOL * n:.1e}")
    t_inv, cond_t, sigma_min_t = numerics.inverse(t_op)
    phi = t_op @ frame
    psi = numerics.dagger(t_inv) @ frame
    sys_ = RieszSystem(
        dim=n,
        frame=frame,
        t_op=t_op,
        t_inv=t_inv,
        phi=phi,
        psi=psi,
        cond_t=cond_t,
        sigma_min_t=sigma_min_t,
    )
    _freeze(sys_.frame, sys_.t_op, sys_.t_inv, sys_.phi, sys_.psi)
    dev = sys_.pair_deviation
    tol = biorthogonality_tolerance(cond_t)
    if dev > tol:
        raise NoConvergence(f"biorthogonality deviation {dev:.3e} exceeds {tol:.3e}")
    return sys_


def dual_system(system: RieszSystem) -> RieszSystem:
    """System built from the dual constructing operator (T^{-1})^H.

    Its phi family is the original psi family and vice versa; rebuilding from
    scratch (including a fresh inversion) keeps duality checks meaningful.
    """
    return build_system(system.frame, numerics.dagger(system.t_inv))


FamilyKind = Literal["f", "phi", "psi"]


class Family(NamedTuple):
    """Constructing operator C of one family and its biorthogonal column sets.

    ``vectors`` = C F and ``duals_h`` = F^H C^{-1} satisfy duals_h @ vectors = I,
    so a function of H0 carried by the family, C g(H0) C^{-1}, is
    ``similarity(g)`` for g given by its values g(lambda_n).  The three arrays
    are all float64 (``real``) or all complex128.
    """

    c_op: CMatrix
    vectors: CMatrix
    duals_h: CMatrix

    @property
    def real(self) -> bool:
        return self.vectors.dtype.kind == "f"

    def similarity(self, g: np.ndarray) -> CMatrix:
        """C F diag(g) F^H C^{-1}: (vectors * g) @ duals_h for a complex family,
        one real GEMM vectors @ (g * duals_h) for a real one.  Values of shape
        (m, N) give the (m, N, N) stack of the m similarities."""
        if self.real:
            return numerics.matmul(self.vectors, g[..., :, None] * self.duals_h)
        return (self.vectors * g[..., None, :]) @ self.duals_h

    def similarity_pair(self, g: np.ndarray) -> tuple[CMatrix, CMatrix]:
        """similarity(g) and similarity(conj(g)), the second as the conjugate
        of the first for a real family: U_t and U_{-t} for g = e^{it lambda}
        with real t, or stacks of them for g of shape (m, N)."""
        s = self.similarity(g)
        return s, (s.conj() if self.real else self.similarity(g.conj()))


def family(system: RieszSystem, kind: FamilyKind) -> Family:
    """The frame ("f", C = I), phi (C = T) or psi (C = (T^{-1})^H) family.

    Formed on first use, frozen and kept in ``system.families``, so every
    caller shares one copy; stored as float64 when C, C F and F^H C^{-1} have
    no imaginary part.  The psi family is the phi family of ``dual_system``,
    read off the existing arrays without a fresh inversion.
    """
    if kind not in system.families:
        if kind == "f":
            eye = np.eye(system.dim, dtype=system.frame.dtype)
            arrays = (eye, system.frame, numerics.dagger(system.frame))
        elif kind == "phi":
            arrays = (system.t_op, system.phi, numerics.dagger(system.psi))
        elif kind == "psi":
            arrays = (numerics.dagger(system.t_inv), system.psi, numerics.dagger(system.phi))
        else:
            raise ValueError(f"family kind must be 'f', 'phi' or 'psi', got {kind!r}")
        if not any(np.any(a.imag) for a in arrays):
            arrays = tuple(np.ascontiguousarray(a.real) for a in arrays)
        fam = Family(*arrays)
        _freeze(*fam)
        system.families[kind] = fam
    return system.families[kind]


def verify_biorthogonality(system: RieszSystem) -> float:
    """max_nm |(phi_n | psi_m) - delta_nm|; zero for an exact pair."""
    gram = numerics.dagger(system.psi) @ system.phi
    return float(np.max(np.abs(gram - np.eye(system.dim))))


class NaturalnessResult(NamedTuple):
    is_natural: bool
    max_deviation: float


def check_naturalness(system: RieszSystem, given_psi: CMatrix) -> NaturalnessResult:
    """Does a proposed dual family satisfy the defining identity T^H psi_n = f_n?

    Measures max_n ||T^H psi_n - f_n|| by multiplication, never through the
    inverse that built the system's own psi family, against the
    biorthogonality tolerance.
    """
    given = np.asarray(given_psi)
    if given.shape != (system.dim, system.dim):
        raise DimensionMismatch(
            f"expected a {system.dim}x{system.dim} dual family, got {given.shape}"
        )
    tol = biorthogonality_tolerance(system.cond_t)
    defect = numerics.matmul(numerics.dagger(system.t_op), given) - system.frame
    dev = float(np.max(np.linalg.norm(defect, axis=0)))
    return NaturalnessResult(is_natural=dev <= tol, max_deviation=dev)
