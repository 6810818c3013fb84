"""Dense complex linear algebra primitives for Hermitian/PSD matrices.

All matrices are square complex numpy arrays.  Dimensions stay below ~64,
so everything is dense and eigendecomposition-based.  Functions marked
"stackable" also take a stack (..., n, n) and work matrix by matrix;
a stack gives the same bits, matrix by matrix, as one call per matrix.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, NotPSD, SingularNegativePower

DEFAULT_TOL = 1e-9

# The one Hermitian check's tol, relative to the Frobenius norm.
HERMITIAN_TOL = 1e-10


def as_matrix(A) -> np.ndarray:
    """Coerce to a complex ndarray of square matrices (..., n, n)."""
    M = np.asarray(A, dtype=complex)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose (stackable)."""
    return A.conj().mT


def fro(A: np.ndarray):
    """Frobenius norm (stackable).  Sums each matrix as np.linalg.norm
    does (a BLAS dot of the real parts plus one of the imaginary parts),
    so clamp bands do not depend on whether a matrix came in a stack."""
    A = np.asarray(A)
    x = A.reshape(A.shape[:-2] + (-1,))
    if x.ndim == 1:
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def is_hermitian(A) -> bool:
    """Whether each matrix of A (stackable) has ||A - A^dag||_F <=
    HERMITIAN_TOL * max(1, ||A||_F): the one check, of a state at
    validation and of a map's Choi matrix at construction."""
    A = as_matrix(A)
    Ad = dag(A)
    # one matrix: Python floats, as numpy scalars would cost as much as
    # the check itself
    if A.ndim == 2:
        return fro(A - Ad) <= HERMITIAN_TOL * max(1.0, fro(A))
    return bool((fro(A - Ad) <= HERMITIAN_TOL * np.maximum(1.0, fro(A))).all())


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _hermitian_part(A) -> np.ndarray:
    A = as_matrix(A)
    return (A + dag(A)) / 2


def hermitian_eig(A) -> HermitianEig:
    """Eigendecomposition of the Hermitian part (A + A^dag) / 2 of A,
    eigenvalues ascending (stackable), with no Hermitian check: each
    matrix the package solves comes from a validated state and map."""
    w, V = np.linalg.eigh(_hermitian_part(A))
    return HermitianEig(w, V)


def clamp_psd(w: np.ndarray, scale: float,
              tol: float = DEFAULT_TOL) -> np.ndarray:
    """The one clamp rule for the spectrum w (ascending) of a PSD matrix
    with Frobenius norm `scale` (stackable: w (..., n), scale (...)).

    Eigenvalues inside the +-tol*scale band become exactly zero.  Raises
    NotPSD, naming tol, on an eigenvalue below the band.
    """
    band = tol * scale
    if w.ndim > 1:  # one band per spectrum of the stack
        low = w[..., 0] < -band
        if low.any():  # the first such spectrum raises its own error
            k = np.unravel_index(low.argmax(), low.shape)
            clamp_psd(w[k], np.broadcast_to(scale, low.shape)[k], tol)
        band = np.asarray(band)[..., None]
    elif w[0] < -band:
        raise NotPSD(f"min eigenvalue {w[0]} < -{band}, the band "
                     f"tol*||A||_F at tol={tol}")
    return np.where(np.abs(w) <= band, 0.0, w)


def powered(w: np.ndarray, t: float) -> np.ndarray:
    """w**t elementwise on a clamped spectrum, with 0**t := 0 for t >= 0:
    w**0 is the support indicator (w != 0), the t -> 0+ limit.  Raises
    SingularNegativePower when t < 0 and w has a zero."""
    if t == 0:
        return (w != 0).astype(float)
    if t < 0 and not w.all():
        raise SingularNegativePower("negative power of a singular matrix")
    return w ** t


def psd_power(A, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A**t for PSD A via eigendecomposition (stackable).

    The Hermitian part's spectrum is clamped by `clamp_psd` (tol's only
    use) and raised by `powered`, so A**0 is the projector onto the
    support of A.  t = 1 returns a copy of A without an eigensolve.
    """
    A = as_matrix(A)
    if t == 1:
        return A.copy()
    w, V = hermitian_eig(A)
    w = powered(clamp_psd(w, fro(A), tol), t)
    return (V * w[..., None, :]) @ dag(V)


def matrix_power_psd(A, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A**t for PSD A; the same as `psd_power`."""
    return psd_power(A, t, tol)


def tensor(*ops) -> np.ndarray:
    """Kronecker product of the given matrices (row-major |ij> ordering)."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def _blocks(rho: np.ndarray, dA: int, dB: int) -> np.ndarray:
    """View rho as a dA x dA grid of dB x dB blocks, axes (..., i, j, k, l)."""
    rho = as_matrix(rho)
    if rho.shape[-1] != dA * dB:
        raise DimensionMismatch(
            f"matrix dim {rho.shape[-1]} != dA*dB = {dA * dB}"
        )
    return rho.reshape(rho.shape[:-2] + (dA, dB, dA, dB)).swapaxes(-3, -2)


def partial_trace(rho, dA: int, dB: int, keep: str = "A") -> np.ndarray:
    """Trace out one subsystem of a bipartite operator on C^dA (x) C^dB
    (stackable).

    keep selects the surviving subsystem: "A" -> dA x dA, "B" -> dB x dB.
    """
    B = _blocks(rho, dA, dB)
    if keep == "A":
        return np.trace(B, axis1=-2, axis2=-1)
    if keep == "B":
        return np.einsum("...iikl->...kl", B)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dA: int, dB: int) -> np.ndarray:
    """Transpose subsystem B of a bipartite operator (block-wise
    transpose; stackable)."""
    B = _blocks(rho, dA, dB)
    return B.swapaxes(-1, -2).swapaxes(-3, -2).reshape(B.shape[:-4] + (
        dA * dB, dA * dB))


def sorted_singular_values(X) -> np.ndarray:
    """Singular values of X (eigenvalues of |X|), ascending."""
    X = as_matrix(X)
    return np.linalg.svd(X, compute_uv=False)[::-1].copy()


def commutator_norm(A, B) -> float:
    """Frobenius norm of the commutator [A, B]."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionMismatch(f"shape mismatch {A.shape} vs {B.shape}")
    return fro(A @ B - B @ A)


def min_eigenvalue(A):
    """Smallest eigenvalue of the Hermitian part of A, from eigenvalues
    only (stackable: one per matrix), with no Hermitian check, as in
    `hermitian_eig`."""
    w = np.linalg.eigvalsh(_hermitian_part(A))[..., 0]
    return w if w.ndim else float(w)
