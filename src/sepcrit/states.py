"""Test-state families: SO(3)-invariant spin-3/2 pairs, the 3x3 bound
entangled family of Horodecki, and seeded random ensembles."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidParameters, InvalidState
from .linalg import as_matrix, tensor


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Bipartite density matrix on C^dA (x) C^dB, |ij> = |i>_A (x) |j>_B,
    or a stack of them: `matrix` is (n, n) or (k, n, n).

    Immutable, and compared and hashed by identity.  `eig` is the
    eigendecomposition, with the stack's batch axis.  When not given,
    validation checks that each matrix is Hermitian (`linalg.is_hermitian`
    at HERMITIAN_TOL) and computes it, one eigensolve for the whole stack;
    when given, as the paper families (`so3_stack`, `horodecki_stack`)
    give their algebra's, it is trusted, and the entries' finiteness,
    the trace and the sign of the smallest eigenvalue are still checked.
    The matrix and `eig` become read-only; InvalidState names the first
    check that any matrix fails.  A paper family's `family` is (Family,
    coef, order), trusted as `eig` is: rho = sum_i coef[..., i] O_i,
    and its eigenvectors are the Family's basis columns `order`.
    `rho[k]` is the k-th state of a stack, holding its slices (`eig` and
    `family` included) and validated with no eigensolve.
    `cache` maps each tol to one state's `sepcrit.criteria.Spectra`,
    which the one-state criteria fill on first use; a stack is
    evaluated through `Spectra(rho, tol)` as a whole.
    """

    matrix: np.ndarray
    dA: int
    dB: int
    eig: linalg.HermitianEig | None = field(default=None, kw_only=True,
                                            repr=False)
    family: tuple | None = field(default=None, kw_only=True, repr=False)
    cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        M = as_matrix(self.matrix)
        if M.ndim > 3:
            raise DimensionMismatch(
                f"expected a matrix or a stack of them, got shape {M.shape}")
        n = self.dA * self.dB
        if M.shape[-1] != n:
            raise InvalidState(f"dim {M.shape[-1]} != dA*dB = {n}")
        if not np.isfinite(M).all():
            raise InvalidState("matrix has a non-finite entry (nan or inf)")
        tr = M.trace(axis1=-2, axis2=-1)
        bad = abs(tr - 1.0) > 1e-10
        if np.count_nonzero(bad):
            raise InvalidState(f"trace {tr.flat[bad.argmax()]} != 1")
        eig = self.eig
        if eig is None:
            if not linalg.is_hermitian(M):
                raise InvalidState("matrix is not Hermitian")
            eig = linalg.hermitian_eig(M)
        if np.count_nonzero(eig.eigenvalues[..., 0] < -1e-9):
            raise InvalidState("matrix is not positive semidefinite")
        for arr in (M, *eig):
            arr.setflags(write=False)
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "eig", eig)

    def __getitem__(self, k) -> DensityMatrix:
        w, V = self.eig
        family = self.family
        if family is not None:
            family = (family[0], family[1][k], family[2][k])
        return DensityMatrix(self.matrix[k], self.dA, self.dB,
                             eig=linalg.HermitianEig(w[k], V[k]),
                             family=family)

    def marginal(self, keep: str = "A") -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.dA, self.dB, keep)


# ---------------------------------------------------------------------------
# the paper families, with their eigendecomposition from their algebra

# Entrywise bound of the one-time check of a joint eigenbasis.
EIGENBASIS_TOL = 1e-14


def joint_eigenbasis(operators):
    """(W, E), read-only, for commuting Hermitian `operators` O_i: W is
    the eigenvectors of sum_i i O_i and E[i, j] = Re(W^dag O_i W)_jj, the
    eigenvalue of O_i on column j.  None unless W^dag W = 1 and each
    W^dag O_i W = diag(E[i]), entrywise within EIGENBASIS_TOL."""
    W = np.linalg.eigh(sum(i * O for i, O in enumerate(operators)))[1]
    Wd, eye = linalg.dag(W), np.eye(len(W))
    G = Wd @ np.stack(operators) @ W
    E = np.diagonal(G, axis1=-2, axis2=-1).real.copy()
    err = max(np.abs(Wd @ W - eye).max(),
              np.abs(G - E[..., None] * eye).max())
    if not err <= EIGENBASIS_TOL:
        return None
    for arr in (W, E):
        arr.setflags(write=False)
    return W, E


class Family:
    """Projectors O_i on C^dA (x) C^dB that resolve the identity, and
    their `joint_eigenbasis`, column k of `vectors` in the range of
    O_block[k]; InvalidState unless each O_i is 1 on its columns and 0
    on the rest within EIGENBASIS_TOL.  Hashed by identity."""

    def __init__(self, projectors, dA: int, dB: int):
        self.operators, self.dA, self.dB = tuple(projectors), dA, dB
        basis = joint_eigenbasis(self.operators)
        if basis is None:
            raise InvalidState("operators have no joint eigenbasis within "
                               f"{EIGENBASIS_TOL}")
        self.vectors, E = basis
        self.block = E.argmax(0)
        one_hot = self.block == np.arange(len(E))[:, None]
        if not np.abs(E - one_hot).max() <= EIGENBASIS_TOL:
            raise InvalidState("operators are not projectors resolving the "
                               f"identity within {EIGENBASIS_TOL}")
        self.block.setflags(write=False)

    @cached_property
    def pt_table(self) -> np.ndarray | None:
        """E of the partial transposes of the O_i (`joint_eigenbasis`),
        or None if they have no joint eigenbasis."""
        basis = joint_eigenbasis(linalg.partial_transpose(
            np.stack(self.operators), self.dA, self.dB))
        return None if basis is None else basis[1]


def _family_stack(M: np.ndarray, coef: np.ndarray,
                  family: Family) -> DensityMatrix:
    """The stack of M[k] = sum_i coef[k, i] O_i, with no eigensolve: the
    eigenvalue of basis column j is coef[k, block[j]], and the columns
    are put in ascending order per state by a stable argsort."""
    V, block = family.vectors, family.block
    n = len(block)
    vals = coef[:, block]
    order = np.argsort(vals, axis=-1, kind="stable")
    # V[i, order[k, j]] for each state k, gathered contiguous
    vectors = V.ravel()[order[:, None, :] + n * np.arange(n)[:, None]]
    eig = linalg.HermitianEig(np.take_along_axis(vals, order, -1), vectors)
    for arr in (coef, order):
        arr.setflags(write=False)
    return DensityMatrix(M, family.dA, family.dB, eig=eig,
                         family=(family, coef, order))


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


@lru_cache(maxsize=None)
def so3_eigenbasis() -> Family:
    """The P_J as a Family (block = J), built on first use."""
    return Family(so3_projectors(), 4, 4)


def so3_stack(p, q, r) -> DensityMatrix:
    """`so3_state` at each point of p, q, r (scalars or 1-D arrays,
    broadcast together), built as one stack.

    Its eigendecomposition comes from the algebra, not an eigensolve:
    rho = sum_J c_J P_J has eigenvalue c_J = w_J / (2J + 1) on the
    range of P_J, so `so3_eigenbasis` diagonalizes every state.  The
    weights and the trace are checked."""
    p, q, r = np.atleast_1d(p, q, r)
    shapes = {x.shape for x in (p, q, r)} - {(1,)}
    if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
        raise InvalidParameters(
            f"p, q, r must be scalars or 1-D arrays of one length, got "
            f"shapes {p.shape}, {q.shape}, {r.shape}")
    p, q, r = np.broadcast_arrays(p, q, r)
    weights = (p, q, r, 1.0 - p - q - r)
    bad = np.any([(w < -1e-12) | (w > 1 + 1e-12) for w in weights], axis=0)
    if bad.any():
        k = bad.argmax()
        raise InvalidParameters(
            f"(p,q,r,s)={tuple(float(w[k]) for w in weights)} not in [0,1]"
        )
    P = so3_projectors()
    coef = [w / (2 * J + 1) for J, w in enumerate(weights)]
    rho = sum(c[:, None, None] * P[J] for J, c in enumerate(coef))
    return _family_stack(rho, np.stack(coef, -1), so3_eigenbasis())


def so3_state(p: float, q: float, r: float) -> DensityMatrix:
    """SO(3)-invariant two-spin-3/2 state p P0 + q P1/3 + r P2/5 + s P3/7.

    (p, q, r, s = 1-p-q-r) must be a probability vector; the projectors
    are trace-normalized so that the mixture has unit trace.
    """
    return so3_stack(p, q, r)[0]


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


@lru_cache(maxsize=None)
def horodecki_operators():
    """|psi+><psi+|, sigma_plus and sigma_minus = V sigma_plus V^dag (V the
    swap) of the 3x3 family, built once and read-only."""
    psi = max_entangled(3)
    proj = np.outer(psi, psi.conj())
    sigma_plus = np.zeros((9, 9), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sigma_plus[3 * i + j, 3 * i + j] = 1 / 3
    V = swap_operator(3)
    sigma_minus = V @ sigma_plus @ V.conj().T
    for op in (proj, sigma_plus, sigma_minus):
        op.setflags(write=False)
    return proj, sigma_plus, sigma_minus


@lru_cache(maxsize=None)
def horodecki_eigenbasis() -> Family:
    """|psi+><psi+| (block 1), 3 sigma_plus (block 2), 3 sigma_minus
    (block 3) and the projector onto the rest (block 0) as a Family,
    built on first use."""
    proj, sigma_plus, sigma_minus = horodecki_operators()
    ops = (proj, 3 * sigma_plus, 3 * sigma_minus)
    return Family((np.eye(9) - sum(ops), *ops), 3, 3)


def horodecki_stack(gammas) -> DensityMatrix:
    """`horodecki_state` at each gamma (a scalar or a 1-D array), built
    as one stack.

    Its eigendecomposition comes from the algebra, not an eigensolve:
    sigma_gamma has eigenvalues 0 (twice), 2/7 on |psi+>, gamma/21 on
    the range of sigma_plus and (5-gamma)/21 on that of sigma_minus
    (three times each), so `horodecki_eigenbasis` diagonalizes every
    state.  gamma and the trace are checked."""
    gamma = np.atleast_1d(np.asarray(gammas, dtype=float))
    if gamma.ndim > 1:
        raise InvalidParameters(f"gammas must be 1-D, got shape {gamma.shape}")
    bad = ~((2.0 <= gamma) & (gamma <= 5.0))
    if bad.any():
        raise InvalidParameters(f"gamma={gamma[bad.argmax()]} outside [2, 5]")
    proj, sigma_plus, sigma_minus = horodecki_operators()
    g = gamma[:, None, None]
    rho = (2 * proj + g * sigma_plus + (5 - g) * sigma_minus) / 7
    coef = np.stack([np.zeros_like(gamma), np.full_like(gamma, 2 / 7),
                     gamma / 21, (5 - gamma) / 21], -1)
    return _family_stack(rho, coef, horodecki_eigenbasis())


def horodecki_state(gamma: float) -> DensityMatrix:
    """One-parameter 3x3 family: PPT for gamma in [2,4], entangled in (3,5].

    sigma_gamma = (1/7) [2 |psi+><psi+| + gamma sigma_plus
                         + (5-gamma) sigma_minus].
    """
    return horodecki_stack(gamma)[0]


def random_density(d: int, seed=0) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr(G G^dag), Ginibre G."""
    if d < 2:
        raise InvalidParameters("d must be >= 2")
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_separable(dA: int, dB: int, k: int = 4, seed=0) -> DensityMatrix:
    """Convex mixture of k random product states, separable by construction."""
    if k < 1:
        raise InvalidParameters("k must be >= 1")
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(k))
    rho = np.zeros((dA * dB, dA * dB), dtype=complex)
    for w in weights:
        rho += w * tensor(random_density(dA, rng), random_density(dB, rng))
    return DensityMatrix(rho, dA, dB)
