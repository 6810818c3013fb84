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
from typing import Optional

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


def _validate_range(alpha: float, beta: float, kind: Kind) -> None:
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ParameterOutOfRange(
            f"alpha={alpha} and beta={beta} must be finite"
        )
    if alpha < 0:
        raise ParameterOutOfRange(f"alpha={alpha} must be >= 0")
    ok = {
        Kind.I: beta >= 1,
        Kind.II: 0 <= beta <= 1,
        Kind.III: -1 <= beta < 0,
        Kind.IV: beta >= 0,
    }[kind]
    if not ok:
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

    def __init__(self, rho: DensityMatrix, m: MatrixMap, tol: float):
        # Holding m keeps its id, part of the cache key, from reuse.
        self.map = m
        self.tol = tol
        self.X = extend_apply(m, rho.matrix, rho.dA)
        self._U = rho.eig.eigenvectors
        self.weights = np.einsum(
            "ji,ji->i", self._U.conj(), self.X @ self._U
        ).real

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


def _map_spectrum(rho: DensityMatrix, m: MatrixMap,
                  tol: float) -> _MapSpectrum:
    key = (id(m), tol)
    entry = rho.cache.get(key)
    if entry is None:
        entry = rho.cache[key] = _MapSpectrum(rho, m, tol)
    return entry


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
        w2 = rho.eig.eigenvalues if X2 is None else X2.eig.eigenvalues
        sig = np.sort(np.abs(w2))  # singular values of the Hermitian X2
        rhs = float(lam_a[::-1] @ np.power(sig, beta))
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
    for a < 1); violation certifies entanglement."""
    if not math.isfinite(alpha) or alpha < 0 or alpha == 1:
        raise ParameterOutOfRange(
            f"alpha={alpha} must be finite, >= 0 and != 1"
        )
    marg = rho.marginal(subsystem)
    w = linalg.clamp_psd(
        linalg.hermitian_eig(marg, tol).eigenvalues, linalg.fro(marg), tol
    )
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
    return linalg.min_eigenvalue(
        linalg.partial_transpose(rho.matrix, rho.dA, rho.dB), tol
    )


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
