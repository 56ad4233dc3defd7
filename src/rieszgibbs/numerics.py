"""Dense linear-algebra kernel.

Every operator in this package is a square ndarray of some fixed dimension N:
``complex128`` in general, ``float64`` where the system (``riesz.build_system``),
a family's arrays and a function of H0 carried by it are real
(``riesz.family``).  This module wraps the handful of factorizations the rest
of the library is expressed through (Hermitian eigendecomposition, SVD,
inversion, traces) and enforces their accuracy contracts: each routine
validates its own result and raises instead of returning a silently
inaccurate factorization.  ``as_operator`` keeps a real input float64 and
casts any other to complex128, so each factorization (``cond``, ``inverse``,
``svd``, ``herm_eig``) runs real LAPACK on a real matrix and returns real
factors, complex LAPACK otherwise.  ``matmul`` multiplies a real factor into
a complex one with one real GEMM.

Stacks.  ``dagger``, ``matmul``, ``hs_inner`` and ``frobenius`` take (..., N, N)
stacks in one numpy call, one GEMM, dot or norm per matrix: each matrix of a
C-contiguous stack gets the digits it gets alone.  A block (``block_size``) is the
most N x N complex128 matrices within BLOCK_BYTES, at least one; one from N = 64 up.

Conventions
-----------
- Inner product on vectors is linear in the *first* argument,
  ``(x|y) = sum_i x_i conj(y_i)``, so that the rank-one operator built from
  ``x`` and ``y`` acts as ``xi -> (xi|y) x``.
- The trace inner product on matrices is ``(S|T) = tr(T^H S)``.
- All routines are pure functions of immutable inputs; nothing here keeps
  global state, so values may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import NoConvergence, NotHermitian, Singular

CMatrix = NDArray[np.complex128]

#: relative accuracy demanded of eigen/SVD factorizations
EIG_TOL = 1e-12
SVD_TOL = 1e-12
#: relative Hermiticity tolerance for spectral-routine inputs
HERM_TOL = 1e-10
#: largest condition number for which an inverse is attempted
COND_MAX = 1e12
#: bytes of N x N complex128 matrices one block may hold (``block_size``)
BLOCK_BYTES = 64 * 1024


def block_size(n: int) -> int:
    """The most N x N complex128 matrices within BLOCK_BYTES, at least one."""
    return max(1, BLOCK_BYTES // (16 * n * n))


def as_operator(a) -> CMatrix:
    """Coerce ``a`` to a square matrix, rejecting non-finite entries: float64
    when ``a`` has a real dtype, complex128 otherwise."""
    m = np.asarray(a)
    m = m.astype(np.float64 if m.dtype.kind in "biuf" else np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return m


def dagger(a: CMatrix) -> CMatrix:
    """Matrix adjoint (conjugate transpose), of each matrix of a stack."""
    return a.conj().mT


def _real_times_complex(r: np.ndarray, c: CMatrix) -> CMatrix:
    return (r @ np.ascontiguousarray(c).view(np.float64)).view(np.complex128)


def matmul(a: np.ndarray, b: np.ndarray, *more: np.ndarray) -> np.ndarray:
    """a @ b @ ..., left to right, each product one real GEMM when one of its
    factors is float64 and the other complex128.

    numpy's own mixed product casts the real factor to complex, which costs
    more than a complex GEMM.  Here real @ complex multiplies the real factor
    into the float64 view (real and imaginary parts interleaved) of the
    C-contiguous complex one, half a complex GEMM's flops; complex @ real is
    the transpose of that.  Any other pair takes plain ``@``.
    """
    kinds = a.dtype.kind + b.dtype.kind
    if kinds == "fc":
        out = _real_times_complex(a, b)
    elif kinds == "cf":
        out = _real_times_complex(b.mT, a.mT).mT
    else:
        out = a @ b
    return matmul(out, *more) if more else out


def _flat(a: np.ndarray) -> np.ndarray:
    """Each matrix of a stack as one row, in C order."""
    return a.reshape(*a.shape[:-2], a.shape[-2] * a.shape[-1])


def frobenius(a: CMatrix) -> float:
    """Frobenius norm of a matrix, or the array of norms of a stack's matrices."""
    if np.ndim(a) == 2:
        return float(np.linalg.norm(a, "fro"))
    flat = _flat(a)
    return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))


def modulus(z: np.ndarray) -> np.ndarray:
    """|z| entrywise with the digits of Python's ``abs``, unlike ``np.abs``."""
    return np.hypot(z.real, z.imag)


def hermiticity_defect(a: CMatrix) -> float:
    """Relative Frobenius distance of ``a`` from its adjoint."""
    scale = frobenius(a)
    if scale == 0.0:
        return 0.0
    return frobenius(a - dagger(a)) / scale


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition A = V diag(values) V^H with ascending real values."""

    values: NDArray[np.float64]
    vectors: CMatrix


def herm_eig(a: CMatrix) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises NotHermitian if the input is farther than HERM_TOL (relative,
    Frobenius) from its adjoint, and NoConvergence if the factorization
    fails or misses its reconstruction/unitarity contract.
    """
    a = as_operator(a)
    if hermiticity_defect(a) > HERM_TOL:
        raise NotHermitian(
            f"relative Hermiticity defect {hermiticity_defect(a):.3e} exceeds {HERM_TOL:.0e}"
        )
    h = 0.5 * (a + dagger(a))
    try:
        values, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc
    scale = max(frobenius(a), 1.0)
    recon = frobenius((vectors * values) @ dagger(vectors) - h)
    ortho = frobenius(dagger(vectors) @ vectors - np.eye(a.shape[0]))
    if recon > EIG_TOL * scale or ortho > EIG_TOL * max(1.0, np.sqrt(a.shape[0])):
        raise NoConvergence(
            f"eigendecomposition residuals too large: recon={recon:.3e}, ortho={ortho:.3e}"
        )
    return HermitianEig(values=values, vectors=np.ascontiguousarray(vectors))


def svd(a: CMatrix) -> tuple[CMatrix, NDArray[np.float64], CMatrix]:
    """Singular value decomposition A = U diag(s) V^H.

    Returns (U, s, V) with descending nonnegative singular values and V
    holding right singular vectors as columns (so ``A = U @ diag(s) @ V.conj().T``).
    """
    a = as_operator(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"SVD failed to converge: {exc}") from exc
    recon = frobenius((u * s) @ vh - a)
    if recon > SVD_TOL * max(frobenius(a), 1.0):
        raise NoConvergence(f"SVD reconstruction residual {recon:.3e} too large")
    return u, s, dagger(vh)


def cond(a: CMatrix) -> tuple[float, float]:
    """2-norm condition number (inf when singular) and smallest singular value,
    both from one SVD without vectors."""
    s = np.linalg.svd(as_operator(a), compute_uv=False)
    if s[-1] == 0.0:
        return np.inf, 0.0
    return float(s[0] / s[-1]), float(s[-1])


def inverse(a: CMatrix) -> tuple[CMatrix, float, float]:
    """Inverse of ``a``, float64 for a real ``a``, with the condition number
    and smallest singular value checked before inverting.

    Refused with Singular when that condition number exceeds COND_MAX.
    """
    a = as_operator(a)
    c, sigma_min = cond(a)
    if not np.isfinite(c) or c > COND_MAX:
        raise Singular(f"condition estimate {c:.3e} exceeds {COND_MAX:.0e}")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise Singular(str(exc)) from exc
    return inv, c, sigma_min


def trace(a: CMatrix) -> complex:
    """tr(a), summed in complex128 for a real ``a`` too, so that a real matrix
    and its complex128 copy give the same digits."""
    return complex(np.trace(as_operator(a), dtype=complex))


def hs_inner(s: CMatrix, t: CMatrix) -> complex:
    """Trace inner product (S|T) = tr(T^H S), linear in the first argument;
    an array of them over stacks, whose leading axes broadcast."""
    s = np.asarray(s, dtype=complex)
    t = np.asarray(t, dtype=complex)
    if s.shape[-2:] != t.shape[-2:]:
        raise ValueError(f"shape mismatch {s.shape} vs {t.shape}")
    return np.vecdot(_flat(t), _flat(s))
