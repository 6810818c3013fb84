"""Test-state families: SO(3)-invariant spin-3/2 pairs, the 3x3 bound
entangled family of Horodecki, and seeded random ensembles."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import linalg
from .errors import InvalidParameters, InvalidState
from .linalg import as_matrix, tensor


@dataclass(frozen=True)
class DensityMatrix:
    """Bipartite density matrix on C^dA (x) C^dB, |ij> = |i>_A (x) |j>_B.

    Immutable.  `eig` is the eigendecomposition that validation computes.
    `cache` holds per-(map, tol) spectral data; `sepcrit.criteria` owns
    its keys and contents.
    """

    matrix: np.ndarray
    dA: int
    dB: int
    eig: linalg.HermitianEig = field(init=False, repr=False, compare=False)
    cache: dict = field(init=False, repr=False, compare=False,
                        default_factory=dict)

    def __post_init__(self):
        M = as_matrix(self.matrix)
        if M.shape[0] != self.dA * self.dB:
            raise InvalidState(
                f"dim {M.shape[0]} != dA*dB = {self.dA * self.dB}"
            )
        if abs(np.trace(M) - 1.0) > 1e-10:
            raise InvalidState(f"trace {np.trace(M)} != 1")
        if linalg.fro(M - linalg.dag(M)) > 1e-10 * max(1.0, linalg.fro(M)):
            raise InvalidState("matrix is not Hermitian")
        eig = linalg.hermitian_eig(M)
        if eig.eigenvalues[0] < -1e-9:
            raise InvalidState("matrix is not positive semidefinite")
        for arr in (M, *eig):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "eig", eig)

    @property
    def dim(self) -> int:
        return self.dA * self.dB

    def marginal(self, keep: str = "A") -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.dA, self.dB, keep)


def spin_operators(j: float = 1.5):
    """Spin matrices (Sx, Sy, Sz) in the |j,m> basis, m descending."""
    dim = int(round(2 * j + 1))
    m = j - np.arange(dim)
    Sz = np.diag(m).astype(complex)
    Sp = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        Sp[k - 1, k] = np.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    Sm = Sp.conj().T
    Sx = (Sp + Sm) / 2
    Sy = (Sp - Sm) / 2j
    return Sx, Sy, Sz


@lru_cache(maxsize=None)
def so3_projectors():
    """Projectors P_J (J = 0..3) onto total-angular-momentum eigenspaces
    of two spin-3/2 systems, via spectral polynomials of J^2."""
    ops = spin_operators(1.5)
    eye = np.eye(4)
    J2 = sum(
        np.linalg.matrix_power(tensor(S, eye) + tensor(eye, S), 2)
        for S in ops
    )
    eigvals = [J * (J + 1) for J in range(4)]
    projectors = []
    for J in range(4):
        P = np.eye(16, dtype=complex)
        for Jp in range(4):
            if Jp != J:
                P = P @ (J2 - eigvals[Jp] * np.eye(16))
                P /= eigvals[J] - eigvals[Jp]
        projectors.append(P)
    return tuple(projectors)


def so3_state(p: float, q: float, r: float) -> DensityMatrix:
    """SO(3)-invariant two-spin-3/2 state p P0 + q P1/3 + r P2/5 + s P3/7.

    (p, q, r, s = 1-p-q-r) must be a probability vector; the projectors
    are trace-normalized so that the mixture has unit trace.
    """
    s = 1.0 - p - q - r
    weights = (p, q, r, s)
    if any(w < -1e-12 or w > 1 + 1e-12 for w in weights):
        raise InvalidParameters(f"(p,q,r,s)={weights} not in [0,1]")
    P = so3_projectors()
    rho = sum(w / (2 * J + 1) * P[J] for J, w in enumerate(weights))
    return DensityMatrix(rho, 4, 4)


def swap_operator(d: int) -> np.ndarray:
    """Bipartite swap on C^d (x) C^d."""
    V = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            V[i * d + j, j * d + i] = 1.0
    return V


def max_entangled(d: int) -> np.ndarray:
    """|psi+> = (1/sqrt d) sum_i |ii> as a column vector."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1.0 / np.sqrt(d)
    return psi


def horodecki_state(gamma: float) -> DensityMatrix:
    """One-parameter 3x3 family: PPT for gamma in [2,4], entangled in (3,5].

    sigma_gamma = (1/7) [2 |psi+><psi+| + gamma sigma_plus
                         + (5-gamma) sigma_minus].
    """
    if not 2.0 <= gamma <= 5.0:
        raise InvalidParameters(f"gamma={gamma} outside [2, 5]")
    psi = max_entangled(3)
    proj = np.outer(psi, psi.conj())
    sigma_plus = np.zeros((9, 9), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sigma_plus[3 * i + j, 3 * i + j] = 1 / 3
    V = swap_operator(3)
    sigma_minus = V @ sigma_plus @ V.conj().T
    rho = (2 * proj + gamma * sigma_plus + (5 - gamma) * sigma_minus) / 7
    return DensityMatrix(rho, 3, 3)


def random_density(d: int, seed=0) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr(G G^dag), Ginibre G."""
    if d < 2:
        raise InvalidParameters("d must be >= 2")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_separable(dA: int, dB: int, k: int = 4, seed=0) -> DensityMatrix:
    """Convex mixture of k random product states, separable by construction."""
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dA * dB, dA * dB), dtype=complex)
    for w in weights:
        rho += w * tensor(random_density(dA, rng), random_density(dB, rng))
    return DensityMatrix(rho, dA, dB)
