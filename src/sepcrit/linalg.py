"""Dense complex linear algebra primitives for Hermitian/PSD matrices.

All matrices are square complex numpy arrays.  Dimensions stay below ~64,
so everything is dense and eigendecomposition-based.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NonHermitian,
    NotPSD,
    SingularNegativePower,
)

DEFAULT_TOL = 1e-9


def as_matrix(A) -> np.ndarray:
    """Coerce to a square complex ndarray."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return A.conj().T


def fro(A: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(A))


def is_hermitian(A: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    A = as_matrix(A)
    return fro(A - dag(A)) <= tol * max(1.0, fro(A))


class HermitianEig(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the
    corresponding orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(A, tol: float = DEFAULT_TOL) -> HermitianEig:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Raises NonHermitian if A is not Hermitian within tol (relative to
    its Frobenius norm).
    """
    A = as_matrix(A)
    if not is_hermitian(A, tol):
        raise NonHermitian(f"matrix is not Hermitian within tol={tol}")
    w, V = np.linalg.eigh((A + dag(A)) / 2)
    return HermitianEig(w, V)


def clamp_psd(w: np.ndarray, scale: float,
              tol: float = DEFAULT_TOL) -> np.ndarray:
    """The one clamp rule for the spectrum w (ascending) of a PSD matrix
    with Frobenius norm `scale`.

    Eigenvalues inside the +-tol*scale band become exactly zero.  Raises
    NotPSD on an eigenvalue below the band.
    """
    band = tol * max(scale, 1e-300)
    if w[0] < -band:
        raise NotPSD(f"min eigenvalue {w[0]} < -{band}")
    return np.where(np.abs(w) <= band, 0.0, w)


def powered(w: np.ndarray, t: float) -> np.ndarray:
    """w**t elementwise on a clamped spectrum, with 0**t := 0 for t > 0
    and w**0 := 1.  Raises SingularNegativePower when t < 0 and w has a
    zero."""
    if t == 0:
        return np.ones_like(w)
    if t < 0 and not w.all():
        raise SingularNegativePower("negative power of a singular matrix")
    return w ** t


def psd_power(A, t: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """A**t for PSD A via eigendecomposition.

    The spectrum is clamped by `clamp_psd` and raised by `powered`.
    t = 1 returns a copy of A without an eigensolve.
    """
    A = as_matrix(A)
    if t == 1:
        return A.copy()
    w, V = hermitian_eig(A, tol)
    return (V * powered(clamp_psd(w, fro(A), tol), t)) @ dag(V)


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
    """View rho as a dA x dA grid of dB x dB blocks, axes (i, j, k, l)."""
    rho = as_matrix(rho)
    if rho.shape[0] != dA * dB:
        raise DimensionMismatch(
            f"matrix dim {rho.shape[0]} != dA*dB = {dA * dB}"
        )
    return rho.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3)


def partial_trace(rho, dA: int, dB: int, keep: str = "A") -> np.ndarray:
    """Trace out one subsystem of a bipartite operator on C^dA (x) C^dB.

    keep selects the surviving subsystem: "A" -> dA x dA, "B" -> dB x dB.
    """
    B = _blocks(rho, dA, dB)
    if keep == "A":
        return np.trace(B, axis1=2, axis2=3)
    if keep == "B":
        return np.einsum("iikl->kl", B)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def partial_transpose(rho, dA: int, dB: int) -> np.ndarray:
    """Transpose subsystem B of a bipartite operator (block-wise transpose)."""
    B = _blocks(rho, dA, dB)
    return B.transpose(0, 1, 3, 2).transpose(0, 2, 1, 3).reshape(
        dA * dB, dA * dB
    )


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


def min_eigenvalue(A, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(hermitian_eig(A, tol).eigenvalues[0])
