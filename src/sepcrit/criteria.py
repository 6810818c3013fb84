"""Scalar and structural separability criteria.

The four (alpha, beta)-inequalities compare Tr rho^a X1^b against
Tr rho^a X2^b (or a singular-value pairing, for kind IV), where
Xi = [I (x) Li](rho) for a CP decomposition L = L1 - L2 of a positive
map.  A violation certifies entanglement; separable states can never
violate.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import (
    AllProjectionsVanish,
    CommutativityViolated,
    ParameterOutOfRange,
    SingularNegativePower,
    SingularOperand,
)
from .linalg import DEFAULT_TOL
from .maps import CPDecomposition, MatrixMap, extend_apply
from .states import DensityMatrix


class Kind(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ENTROPIC = "ENTROPIC"
    STRUCTURAL = "STRUCTURAL"
    LIMIT = "LIMIT"


@dataclass(frozen=True)
class CriterionResult:
    lhs: float
    rhs: float
    margin: float  # sign-adjusted: margin < 0 <=> inequality violated
    violated: bool
    kind: Kind
    tol: float
    commutator_norm: Optional[float] = None

    @property
    def label(self) -> str:
        return self.kind.value


def _verdict(lhs: float, rhs: float, reversed_: bool, kind: Kind,
             tol: float, commutator: Optional[float] = None) -> CriterionResult:
    margin = (rhs - lhs) if reversed_ else (lhs - rhs)
    scale = max(1.0, abs(lhs), abs(rhs))
    return CriterionResult(
        lhs, rhs, margin, bool(margin < -tol * scale), kind, tol, commutator
    )


_BETA_OK = {
    Kind.I: lambda beta: beta >= 1,
    Kind.II: lambda beta: 0 <= beta <= 1,
    Kind.III: lambda beta: -1 <= beta < 0,
    Kind.IV: lambda beta: beta >= 0,
}


def _validate_range(alpha: float, beta: float, kind: Kind) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterOutOfRange(
            f"alpha={alpha} and beta={beta} must be finite"
        )
    if alpha < 0:
        raise ParameterOutOfRange(f"alpha={alpha} must be >= 0")
    if not _BETA_OK[kind](beta):
        raise ParameterOutOfRange(f"beta={beta} invalid for kind {kind.value}")


# ---------------------------------------------------------------------------
# the spectral core: Tr rho^a X^b = sum_ij lam_i^a |<u_i|v_j>|^2 mu_j^b for
# rho = sum_i lam_i |u_i><u_i| and X = sum_j mu_j |v_j><v_j|

def _rho_spectrum(rho: DensityMatrix, tol: float) -> np.ndarray:
    """Eigenvalues of rho (ascending, columns of rho.eig.eigenvectors)
    after the clamp rule at tol."""
    key = (None, tol)
    lam = rho.cache.get(key)
    if lam is None:
        lam = rho.cache[key] = linalg.clamp_psd(
            rho.eig.eigenvalues, linalg.fro(rho.matrix), tol
        )
    return lam


class _MapSpectrum:
    """X = [I (x) L](rho) and its spectral data for one state, map and tol.

    The weights (U^dag X U)_ii in rho's eigenbasis U give Tr rho^a X
    without an eigensolve; X's spectrum and its overlap with rho's
    eigenbasis are computed on first use.
    """

    def __init__(self, m: MatrixMap, tol: float, X: np.ndarray,
                 U: np.ndarray, weights: np.ndarray):
        # Holding m keeps its id, part of the cache key, from reuse.
        self.map = m
        self.tol = tol
        self.X = X
        self._U = U
        self.weights = weights

    @cached_property
    def eig(self) -> linalg.HermitianEig:
        return linalg.hermitian_eig(self.X, self.tol)

    @cached_property
    def mu(self) -> np.ndarray:
        """Eigenvalues of X after the clamp rule."""
        return linalg.clamp_psd(
            self.eig.eigenvalues, linalg.fro(self.X), self.tol
        )

    @cached_property
    def overlap(self) -> np.ndarray:
        """|<u_i|v_j>|^2 for rho's eigenvectors u_i and X's v_j."""
        return np.abs(linalg.dag(self._U) @ self.eig.eigenvectors) ** 2

    def trace_power(self, lam_a: np.ndarray, beta: float) -> float:
        """Tr rho^a X^beta, given lam_a = powered(rho spectrum, a)."""
        if beta == 1:
            return float(lam_a @ self.weights)
        return float(lam_a @ self.overlap @ linalg.powered(self.mu, beta))


# Every step of `fill_cache` is stackable, so one state's arrays need no
# batch axis: _stacked and _per_state leave them as they are.

def _stacked(arrays: list) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.array(arrays)


def _per_state(result: np.ndarray, n: int):
    return (result,) if n == 1 else result


def fill_cache(rhos: Sequence[DensityMatrix],
               maps: Sequence[MatrixMap] = (), tol: float = DEFAULT_TOL,
               marginal: Optional[str] = None, ppt: bool = False) -> None:
    """Fill the caches of states on one C^dA (x) C^dB in one stacked pass.

    Per map: X = [I (x) L](rho) and its weights (one matmul for the
    stack).  With `marginal` ("A" or "B"): that marginal's clamped
    spectrum (one eigensolve).  With `ppt`: the partial transpose's
    minimum eigenvalue (one eigvalsh).  Entries a state already holds
    are kept.  The criteria's lazy per-state fills are its one-state
    calls.
    """
    dA, dB, n = rhos[0].dA, rhos[0].dB, len(rhos)
    M = _stacked([rho.matrix for rho in rhos])
    if maps:
        U = _stacked([rho.eig.eigenvectors for rho in rhos])
        Ud = U.conj()
    for m in maps:
        X = extend_apply(m, M, dA)
        W = np.einsum("...ji,...ji->...i", Ud, X @ U).real
        for rho, x, w in zip(rhos, _per_state(X, n), _per_state(W, n)):
            rho.cache.setdefault((id(m), tol), _MapSpectrum(
                m, tol, x, rho.eig.eigenvectors, w
            ))
    if marginal is not None:
        marg = linalg.partial_trace(M, dA, dB, marginal)
        w = linalg.clamp_psd(linalg.hermitian_eig(marg, tol).eigenvalues,
                             linalg.fro(marg), tol)
        for rho, v in zip(rhos, _per_state(w, n)):
            rho.cache.setdefault(("marginal", marginal, tol), v)
    if ppt:
        w = linalg.min_eigenvalue(linalg.partial_transpose(M, dA, dB), tol)
        for rho, v in zip(rhos, _per_state(w, n)):
            rho.cache.setdefault(("ppt", tol), float(v))


def _cached(rho: DensityMatrix, key, **what):
    """rho's cache entry under key, filled by `fill_cache(**what)`."""
    entry = rho.cache.get(key)
    if entry is None:
        fill_cache([rho], **what)
        entry = rho.cache[key]
    return entry


def _map_spectrum(rho: DensityMatrix, m: MatrixMap,
                  tol: float) -> _MapSpectrum:
    return _cached(rho, (id(m), tol), maps=(m,), tol=tol)


def alpha_beta_inequality(rho: DensityMatrix, dec: CPDecomposition,
                          alpha: float, beta: float, kind: Kind = Kind.II,
                          tol: float = DEFAULT_TOL) -> CriterionResult:
    """Evaluate one of the four (alpha, beta)-inequalities on rho.

    Kind I (beta >= 1) needs [X2, rho] = 0 unless lambda2 is the
    identity, in which case X2 = rho and the right-hand side is
    Tr rho^alpha rho^beta on rho's spectrum.  Kind III reverses the
    inequality direction; kind IV pairs descending eigenvalues of rho
    with ascending singular values of X2.
    """
    if isinstance(kind, str):
        kind = Kind[kind]
    _validate_range(alpha, beta, kind)
    lam = _rho_spectrum(rho, tol)
    lam_a = linalg.powered(lam, alpha)
    X1 = _map_spectrum(rho, dec.lambda1, tol)
    X2 = None if dec.lambda2_is_identity else _map_spectrum(
        rho, dec.lambda2, tol
    )

    commutator = None
    if kind is Kind.I and X2 is not None:
        commutator = linalg.commutator_norm(X2.X, rho.matrix)
        if commutator > tol * max(1.0, linalg.fro(rho.matrix)):
            raise CommutativityViolated(
                f"[X2, rho] norm {commutator} exceeds tolerance"
            )

    try:
        lhs = X1.trace_power(lam_a, beta)
    except SingularNegativePower as exc:
        raise SingularOperand(f"X1 singular for beta={beta}") from exc

    if kind is Kind.IV:
        # singular values of the Hermitian X2, from its clamped spectrum
        sig = np.sort(np.abs(lam if X2 is None else X2.mu))
        rhs = float(lam_a[::-1] @ linalg.powered(sig, beta))
        return _verdict(lhs, rhs, False, kind, tol)

    try:
        rhs = (float(lam_a @ linalg.powered(lam, beta)) if X2 is None
               else X2.trace_power(lam_a, beta))
    except SingularNegativePower as exc:
        raise SingularOperand(f"X2 singular for beta={beta}") from exc

    return _verdict(lhs, rhs, kind is Kind.III, kind, tol, commutator)


def entropic_inequality(rho: DensityMatrix, alpha: float, subsystem: str = "A",
                        tol: float = DEFAULT_TOL) -> CriterionResult:
    """Renyi-type inequality Tr rho_sub^a >= Tr rho^a (a > 1, reversed
    for a < 1); violation certifies entanglement.  At a = 0 the traces
    are ranks (0^0 := 0), so it is the rank test rank rho_sub <= rank rho.
    """
    if not math.isfinite(alpha) or alpha < 0 or alpha == 1:
        raise ParameterOutOfRange(
            f"alpha={alpha} must be finite, >= 0 and != 1"
        )
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    w = _cached(rho, ("marginal", subsystem, tol), marginal=subsystem,
                tol=tol)
    lhs = float(np.sum(linalg.powered(w, alpha)))
    rhs = float(np.sum(linalg.powered(_rho_spectrum(rho, tol), alpha)))
    return _verdict(lhs, rhs, alpha < 1, Kind.ENTROPIC, tol)


def structural_criterion(rho: DensityMatrix, m: MatrixMap,
                         tol: float = DEFAULT_TOL) -> float:
    """Min eigenvalue of [I (x) L](rho); negative beyond tol detects
    entanglement."""
    return float(_map_spectrum(rho, m, tol).eig.eigenvalues[0])


def ppt_check(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Min eigenvalue of the partial transpose; >= -tol means PPT."""
    return _cached(rho, ("ppt", tol), ppt=True, tol=tol)


def limit_witness(rho: DensityMatrix, m: MatrixMap,
                  tol: float = DEFAULT_TOL) -> float:
    """alpha -> infinity limit of the beta = 1 inequality.

    Walks the eigenvalues of rho from the top in degenerate groups
    (grouping within tol * ||rho||_F) and returns Tr([I (x) L](rho) P)
    for the first group projector P with a non-vanishing trace.
    Negative value <=> detection.
    """
    weights = _map_spectrum(rho, m, tol).weights
    w = rho.eig.eigenvalues
    band = tol * max(linalg.fro(rho.matrix), 1e-300)
    i = len(w) - 1
    while i >= 0:
        j = i
        while j > 0 and w[j - 1] >= w[i] - band:
            j -= 1
        val = float(np.sum(weights[j:i + 1]))
        if abs(val) > tol:
            return val
        i = j - 1
    raise AllProjectionsVanish("Tr(X P) vanished for every eigen-group")
