"""Dense complex linear algebra primitives for Hermitian/PSD matrices.

All matrices are square complex numpy arrays.  Dimensions stay below ~64,
so everything is dense and eigendecomposition-based.  Functions marked
"stackable" also take a stack (..., n, n) and work matrix by matrix;
a stack gives the same bits, matrix by matrix, as one call per matrix.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParameters, NotPSD
from .errors import ParameterOutOfRange, SingularNegativePower

DEFAULT_TOL = 1e-9

# The one Hermitian check's tol, relative to the Frobenius norm.
HERMITIAN_TOL = 1e-10

# The tols that the criteria and the map tests accept.  tol is both the
# verdict threshold and the clamp band.  Below the floor, rounding alone
# decides the sign of margins that are exactly 0 (the reduction
# inequality on pure product states); above the ceiling, the band
# tol ||A||_F, up to sqrt(rank A) tol lambda_max, zeroes so much that
# separable states read VIOLATED (boundary suite: none to 0.1, 30 at 0.2).
TOL_FLOOR, TOL_CEILING = 1e-13, 1e-3


def check_tol(tol: float) -> float:
    """tol, if it is a real number (`is_real`) from TOL_FLOOR to
    TOL_CEILING, else ParameterOutOfRange."""
    if not (is_real(tol) and TOL_FLOOR <= tol <= TOL_CEILING):
        raise ParameterOutOfRange(
            f"tol={tol!r} must be a number from {TOL_FLOOR} to {TOL_CEILING}")
    return tol


def is_real(x) -> bool:
    """Whether x is a real number (`numbers.Real`): an int, a float or a
    numpy integer or floating scalar, and a bool (numpy's too), as an
    int is; not None, a str, a complex or an array.  A float or an int
    answers without walking the `numbers.Real` ABC, which costs about
    20 times a plain isinstance."""
    return isinstance(x, (float, int)) or isinstance(x, (numbers.Real,
                                                         np.bool_))


def check_real(x, name: str):
    """x, if it is a real number (`is_real`), else ParameterOutOfRange
    naming it as `name`."""
    if not is_real(x):
        raise ParameterOutOfRange(f"{name}={x!r} must be a real number")
    return x


def _numbers(x, kinds: str, name: str, rule: str) -> np.ndarray:
    """x as an array, if its dtype kind is one of `kinds`, else
    InvalidParameters naming it as `name`: "{name}=... must {rule}"."""
    try:
        a = np.asarray(x)
    except ValueError:  # a ragged nesting of lists
        a = np.asarray(None)
    if a.dtype.kind not in kinds:
        raise InvalidParameters(f"{name}={x!r:.60} must {rule}")
    return a


def as_real(x, name: str) -> np.ndarray:
    """x as float64, of x's shape, if it holds only bools, integers and
    floats (numpy's too; a float32 is widened, a float64 keeps its bits),
    else InvalidParameters naming it as `name`: a str, a complex, None
    and any other object are not real numbers."""
    return _numbers(x, "biuf", name, "be real numbers").astype(
        np.float64, copy=False)


def is_count(n) -> bool:
    """Whether n is a non-negative integer (a bool is not one): a count,
    an index or a seed."""
    return (isinstance(n, (int, np.integer)) and not isinstance(n, bool)
            and n >= 0)


def is_dimension(d) -> bool:
    """Whether d is a positive integer (a bool is not one)."""
    return is_count(d) and d > 0


def as_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex ndarray of square matrices (..., n, n); an A
    that holds anything but numbers raises InvalidParameters naming it
    as `name`."""
    M = _numbers(A, "biufc", name, "hold numbers").astype(complex, copy=False)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {M.shape}")
    return M


def dag(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose (stackable)."""
    return A.conj().mT


def fro(A: np.ndarray):
    """Frobenius norm (stackable), summed as np.linalg.norm sums it: a
    BLAS dot of the real parts plus one of the imaginary parts."""
    A = np.asarray(A)
    # the size of a matrix, explicit: -1 cannot be inferred on an empty stack
    x = A.reshape(A.shape[:-2] + (A.shape[-2] * A.shape[-1],))
    if x.ndim == 1:
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


def vecdot(a: np.ndarray, b: np.ndarray):
    """sum_i a[..., i] b[..., i] of real vectors (stackable).

    One pair of 1-D vectors takes `ndarray.dot`, at about half the call
    cost of np.vecdot, with the same bits: for float64 vectors both run
    numpy's one dot loop, which hands positive strides to BLAS ddot.  A
    negative stride is where they part: np.vecdot sums such a view in a
    plain loop and ndarray.dot copies it for ddot, so kind IV's reversed
    spectrum goes to np.vecdot itself."""
    if a.ndim == b.ndim == 1:
        return a.dot(b)
    return np.vecdot(a, b)


def spectral_fro(w: np.ndarray):
    """sqrt(sum w**2) of each spectrum w (stackable): the Frobenius norm
    of a Hermitian matrix with spectrum w, one dot per spectrum, so a
    spectrum's bits do not depend on its stack."""
    if w.ndim == 1:
        return math.sqrt(w.dot(w))
    return np.sqrt(np.vecdot(w, w))


def is_hermitian(A) -> bool:
    """Whether each matrix of A (stackable) has ||A - A^dag||_F <=
    HERMITIAN_TOL * max(1, ||A||_F): the one check, of a state at
    validation and of a map's Choi matrix at construction.  The entries
    must be finite.  A matrix whose ||A||_F overflows is checked as
    A / max |A_ij|, whose norm is at least 1, so the test is unchanged
    and inf <= inf cannot pass it."""
    A = as_matrix(A)
    with np.errstate(over="ignore"):
        diff, norm = fro(A - dag(A)), fro(A)
    # one matrix: Python floats, as numpy scalars would cost as much as
    # the check itself
    if A.ndim == 2:
        if norm == math.inf:
            return is_hermitian(A / np.abs(A).max())
        return diff <= HERMITIAN_TOL * max(1.0, norm)
    if np.isinf(norm).any():
        return all(map(is_hermitian, A.reshape((-1,) + A.shape[-2:])))
    return bool((diff <= HERMITIAN_TOL * np.maximum(1.0, norm)).all())


class lazy(functools.cached_property):
    """`functools.cached_property` without its lock (about 1 us per first
    read on Python 3.11); a read that raises keeps nothing."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return obj.__dict__.setdefault(self.attrname, self.func(obj))


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


def clamp_psd(w: np.ndarray, tol=DEFAULT_TOL, fro=None) -> np.ndarray:
    """The one clamp rule for the spectrum w (ascending) of a PSD matrix
    (stackable: w (..., n), one band per spectrum).

    Eigenvalues inside the +-tol*||w||_2 band become exactly zero, where
    ||w||_2 is the Frobenius norm `fro` (default `spectral_fro(w)`).
    Raises NotPSD, naming tol, on an eigenvalue below the band."""
    band = tol * (spectral_fro(w) if fro is None else fro)
    if w.ndim > 1:
        low = w[..., 0] < -band
        if np.count_nonzero(low):  # the first such one raises its error
            clamp_psd(w[np.unravel_index(low.argmax(), low.shape)], tol)
        band = band[..., None]
    elif w[0] < -band:
        raise NotPSD(f"min eigenvalue {w[0]} < -{band}, the band "
                     f"tol*||A||_F at tol={tol}")
    return np.where(np.abs(w) <= band, 0.0, w)


def combine(coef: np.ndarray, terms) -> np.ndarray:
    """sum_i coef[..., i] terms[i] (stackable), summed elementwise in
    the terms' order: a matmul's BLAS kernel, and so a state's bits,
    would depend on the stack size."""
    axes = (None,) * terms[0].ndim
    out = coef[(..., 0, *axes)] * terms[0]
    for i in range(1, len(terms)):
        out = out + coef[(..., i, *axes)] * terms[i]
    return out


def gather_last(x: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """np.take_along_axis(x, idx, -1), bit for bit, for one state's x (n,)
    and idx (m,), or a stack's x (k, n) and idx (k, m), with entries of
    idx in [0, n): one flat fancy index, where take_along_axis builds an
    index grid per call."""
    if idx.ndim == 1:
        return x[idx]
    return x.reshape(-1)[idx + np.arange(0, x.size, x.shape[-1])[:, None]]


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
    w = powered(clamp_psd(w, tol), t)
    return (V * w[..., None, :]) @ dag(V)


# one function under both names, which callers outside the package use
matrix_power_psd = psd_power


def tensor(*ops) -> np.ndarray:
    """Kronecker product of the given matrices (row-major |ij> ordering;
    stackable, a stack's matrices paired one by one with the next
    operand's), bit for bit np.kron's: each entry is one product
    a[i, j] b[k, l], formed by one broadcast multiply instead of
    np.kron's general n-dimensional path."""
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        b = np.asarray(op, dtype=complex)
        (m, n), (p, q) = out.shape[-2:], b.shape[-2:]
        out = out[..., :, None, :, None] * b[..., None, :, None, :]
        out = out.reshape(out.shape[:-4] + (m * p, n * q))
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
    raise InvalidParameters(f"keep must be 'A' or 'B', got {keep!r}")


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
