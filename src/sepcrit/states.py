"""Test-state families: SO(3)-invariant spin-3/2 pairs, the 3x3 bound
entangled family of Horodecki, and seeded random ensembles."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidParameters, InvalidState
from .linalg import as_matrix, tensor


class DensityMatrix:
    """Bipartite density matrix on C^dA (x) C^dB, |ij> = |i>_A (x) |j>_B,
    or a stack of them: `matrix` is (n, n) or (k, n, n).

    Immutable, and compared and hashed by identity.  `eigenvalues` are
    ascending, with the stack's batch axis, and `eig` is the
    eigendecomposition.  When `eig` is not given, validation checks that
    each matrix is Hermitian (`linalg.is_hermitian` at HERMITIAN_TOL)
    and computes it, one eigensolve for the whole stack; when given, it
    is trusted, and the entries' finiteness, the trace and the sign of
    the smallest eigenvalue are still checked.  The matrix and `eig`
    become read-only; InvalidState names the first check that any
    matrix fails.

    A paper family's state is its `family` (Family, coef, order),
    trusted as `eig` is: rho = sum_i coef[..., i] O_i, with eigenvectors
    the Family's basis columns `order` (None: validation's stable argsort
    of coef[..., block]).  It is validated from coef alone: the
    coefficients' finiteness, the trace coef @ Family.ranks and the
    smallest eigenvalue, coef[..., block] in `order`.  Either way,
    InvalidState rejects a dA or dB that is not a positive integer.

    `builders`, made at validation, is the one (matrix, eigenvectors)
    pair of functions of no argument that `matrix`, `eig` and every
    `sepcrit.criteria.Spectra` of the state read: a family state's call
    `family_matrix` and `family_vectors` once.  None refers to the state.

    `rho[k]` is the k-th state of a stack, validated with no eigensolve:
    a dense one holds the stack's slices, a family one builds its own.
    An empty stack is valid, and every criterion gives it an empty
    ResultStack.
    `cache` maps each tol to one state's `Spectra`, filled on first use
    by the one-state criteria; a stack is evaluated by `Spectra(rho, tol)`.
    """

    def __init__(self, matrix, dA: int, dB: int, *,
                 eig: linalg.HermitianEig | None = None,
                 family: tuple | None = None):
        self.__dict__.update(dA=dA, dB=dB, family=family, cache={})
        if family is None:  # a family state builds its own
            self.__dict__.update(matrix=matrix, eig=eig)
        self.__post_init__()

    def __post_init__(self):
        if not (linalg.is_dimension(self.dA) and linalg.is_dimension(self.dB)):
            raise InvalidState(f"dA={self.dA!r} and dB={self.dB!r} must be "
                               "positive integers")
        if self.family is None:
            self._validate_matrix()
        else:
            self._validate_family()

    def _validate_matrix(self):
        fields = self.__dict__
        M, eig = as_matrix(fields["matrix"]), fields["eig"]
        if M.ndim > 3:
            raise DimensionMismatch(
                f"expected a matrix or a stack of them, got shape {M.shape}")
        n = self.dA * self.dB
        if M.shape[-1] != n:
            raise InvalidState(f"dim {M.shape[-1]} != dA*dB = {n}")
        if not np.isfinite(M).all():
            raise InvalidState(_NON_FINITE)
        _check_trace(M.trace(axis1=-2, axis2=-1))
        if eig is None:
            if not linalg.is_hermitian(M):
                raise InvalidState("matrix is not Hermitian")
            eig = linalg.hermitian_eig(M)
        _check_psd(eig.eigenvalues)
        for arr in (M, *eig):
            arr.setflags(write=False)
        fields.update(matrix=M, eig=eig, eigenvalues=eig.eigenvalues,
                      builders=(lambda: M, lambda: eig.eigenvectors))

    def _validate_family(self):
        family, coef, order = self.family
        if not np.isfinite(coef).all():
            raise InvalidState(_NON_FINITE)
        _check_trace(coef @ family.ranks)
        w = coef[..., family.block]
        if order is None:
            order = np.argsort(w, axis=-1, kind="stable")
        w = linalg.gather_last(w, order)  # C-ordered, as w's sums need
        _check_psd(w)
        for arr in (coef, order, w):
            arr.setflags(write=False)
        held = (family, coef, order)
        self.__dict__.update(family=held, eigenvalues=w, builders=(
            _built_once(family_matrix, held),
            _built_once(family_vectors, held)))

    def __setattr__(self, name, value):
        raise AttributeError(f"DensityMatrix is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(
            f"DensityMatrix is immutable: cannot delete {name}")

    def __repr__(self) -> str:
        return f"DensityMatrix(dA={self.dA}, dB={self.dB}, shape={self.shape})"

    @property
    def shape(self) -> tuple:
        """The shape of `matrix`, read without building it."""
        w = self.eigenvalues
        return w.shape + w.shape[-1:]

    @linalg.lazy
    def matrix(self) -> np.ndarray:
        """A family state's, from its builder."""
        return self.builders[0]()

    @linalg.lazy
    def eig(self) -> linalg.HermitianEig:
        """A family state's, from `eigenvalues` and its builder."""
        return linalg.HermitianEig(self.eigenvalues, self.builders[1]())

    def __getitem__(self, k) -> DensityMatrix:
        if self.eigenvalues.ndim < 2:
            raise DimensionMismatch(
                f"expected a stack of states, got shape {self.shape}")
        if self.family is not None:
            family, coef, order = self.family
            return DensityMatrix(None, self.dA, self.dB,
                                 family=(family, coef[k], order[k]))
        return DensityMatrix(self.matrix[k], self.dA, self.dB,
                             eig=self.eig._make(a[k] for a in self.eig))

    def marginal(self, keep: str = "A") -> np.ndarray:
        return linalg.partial_trace(self.matrix, self.dA, self.dB, keep)


_NON_FINITE = "matrix has a non-finite entry (nan or inf)"


def _check_trace(tr) -> None:
    """InvalidState naming, as a complex, the first tr not 1 within 1e-10."""
    bad = abs(tr - 1.0) > 1e-10
    if np.count_nonzero(bad):
        raise InvalidState(f"trace {complex(np.ravel(tr)[bad.argmax()])} != 1")


def _check_psd(w: np.ndarray) -> None:
    """InvalidState unless the smallest of each ascending spectrum w is
    at least -1e-9."""
    if np.count_nonzero(w[..., 0] < -1e-9):
        raise InvalidState("matrix is not positive semidefinite")


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
    on the rest within EIGENBASIS_TOL.  Hashed by identity.

    Built with it: `pt_table` and `marginal_tables["A"]` and `["B"]`,
    the E of the `joint_eigenbasis` of the O_i's partial transposes and
    of their marginals (`linalg.partial_trace` keeping that subsystem),
    each None where those images have no joint eigenbasis."""

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
        # the rank of each O_i: Tr sum_i c_i O_i = c @ ranks
        self.ranks = one_hot.sum(1).astype(float)
        for arr in (self.block, self.ranks):
            arr.setflags(write=False)
        ops = np.stack(self.operators)
        self.pt_table = _table(linalg.partial_transpose(ops, dA, dB))
        self.marginal_tables = {keep: _table(linalg.partial_trace(
            ops, dA, dB, keep)) for keep in "AB"}


def _table(operators) -> np.ndarray | None:
    """E of the `joint_eigenbasis` of `operators`, or None."""
    basis = joint_eigenbasis(operators)
    return None if basis is None else basis[1]


def _family_stack(coef: np.ndarray, family: Family) -> DensityMatrix:
    """The stack of sum_i coef[k, i] O_i, with no eigensolve and no
    matrix: the eigenvalue of basis column j is coef[k, block[j]], and
    validation puts the columns in ascending order per state by a stable
    argsort."""
    return DensityMatrix(None, family.dA, family.dB,
                         family=(family, coef, None))


def _built_once(build, family):
    """build(family) as a function of no argument, built on first call."""
    built = []

    def read():
        if not built:
            built.append(build(family))
        return built[0]
    return read


def family_matrix(family: tuple) -> np.ndarray:
    """sum_i coef[..., i] O_i over Family.operators (`linalg.combine`)
    for a family state's (Family, coef, order); read-only."""
    M = linalg.combine(family[1], family[0].operators)
    M.setflags(write=False)
    return M


def family_vectors(family: tuple) -> np.ndarray:
    """The basis columns `order` of a family state's (Family, coef,
    order), V[i, order[..., j]] gathered contiguous; read-only."""
    V, order = family[0].vectors, family[2]
    n = len(V)
    vectors = V.ravel()[order[..., None, :] + n * np.arange(n)[:, None]]
    vectors.setflags(write=False)
    return vectors


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
    weights must lie in [0, 1], which a NaN does not, and the trace is
    checked; each of p, q, r must hold real numbers (`linalg.as_real`),
    which are computed with in float64."""
    p, q, r = np.atleast_1d(*map(linalg.as_real, (p, q, r), "pqr"))
    shapes = {x.shape for x in (p, q, r)} - {(1,)}
    if len(shapes) > 1 or any(len(shape) > 1 for shape in shapes):
        raise InvalidParameters(
            f"p, q, r must be scalars or 1-D arrays of one length, got "
            f"shapes {p.shape}, {q.shape}, {r.shape}")
    p, q, r = np.broadcast_arrays(p, q, r)
    weights = (p, q, r, 1.0 - p - q - r)
    # a NaN weight fails both comparisons
    bad = ~np.all([(w >= -1e-12) & (w <= 1 + 1e-12) for w in weights], axis=0)
    if bad.any():
        k = bad.argmax()
        raise InvalidParameters(
            f"(p,q,r,s)={tuple(float(w[k]) for w in weights)} not in [0,1]"
        )
    coef = np.stack([w / (2 * J + 1) for J, w in enumerate(weights)], -1)
    return _family_stack(coef, so3_eigenbasis())


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
    state.  gamma (real numbers, `linalg.as_real`) and the trace are
    checked."""
    gamma = np.atleast_1d(linalg.as_real(gammas, "gamma"))
    if gamma.ndim > 1:
        raise InvalidParameters(f"gammas must be 1-D, got shape {gamma.shape}")
    bad = ~((2.0 <= gamma) & (gamma <= 5.0))
    if np.count_nonzero(bad):
        raise InvalidParameters(f"gamma={gamma[bad.argmax()]} outside [2, 5]")
    coef = np.array([[0.0, 6.0, 0.0, 5.0]]).repeat(len(gamma), 0)
    coef[:, 2] = gamma
    coef[:, 3] -= gamma
    coef /= 21  # 6 / 21 is 2 / 7 to the bit
    return _family_stack(coef, horodecki_eigenbasis())


def horodecki_state(gamma: float) -> DensityMatrix:
    """One-parameter 3x3 family: PPT for gamma in [2,4], entangled in (3,5].

    sigma_gamma = (1/7) [2 |psi+><psi+| + gamma sigma_plus
                         + (5-gamma) sigma_minus].
    """
    return horodecki_stack(gamma)[0]


def random_density(d: int, seed=0) -> np.ndarray:
    """Full-rank random density matrix G G^dag / Tr(G G^dag), Ginibre G;
    seed is an integer >= 0 or a numpy Generator."""
    if not (linalg.is_dimension(d) and d >= 2):
        raise InvalidParameters(f"d={d!r} must be an integer >= 2")
    rng = np.random.default_rng(_check_seed(seed))
    return _ginibre_densities(rng.standard_normal(2 * d * d), d)


def _ginibre_densities(x: np.ndarray, d: int) -> np.ndarray:
    """G G^dag / Tr(G G^dag) for each Ginibre G = re + 1j * im drawn as
    the 2 d^2 normals x[..., :] (re, then im, each row-major), one state
    per row of x: a stack gives each state the bits of a single one."""
    x = x.reshape(x.shape[:-1] + (2, d, d))
    G = x[..., 0, :, :] + 1j * x[..., 1, :, :]
    rho = G @ G.conj().mT
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


def random_separable(dA: int, dB: int, k: int = 4, seed=0) -> DensityMatrix:
    """Convex mixture of k random product states, separable by
    construction; seed as for `random_density`.

    Term i is `random_density(dA)` (x) `random_density(dB)`, drawn in
    that order after the weights, all in one draw from the generator:
    the same stream, and so the same bits, as one `random_density` call
    per factor."""
    if not all(linalg.is_dimension(d) and d >= 2 for d in (dA, dB)):
        raise InvalidParameters(
            f"dA={dA!r} and dB={dB!r} must be integers >= 2")
    if not linalg.is_dimension(k):
        raise InvalidParameters(f"k={k!r} must be an integer >= 1")
    rng = np.random.default_rng(_check_seed(seed))
    weights = rng.dirichlet(np.ones(k))
    x = rng.standard_normal((k, 2 * (dA * dA + dB * dB)))
    a = _ginibre_densities(x[:, :2 * dA * dA], dA)
    b = _ginibre_densities(x[:, 2 * dA * dA:], dB)
    rho = np.zeros((dA * dB, dA * dB), dtype=complex)
    for w, t in zip(weights, tensor(a, b)):
        rho += w * t
    return DensityMatrix(rho, dA, dB)


def _check_seed(seed):
    """seed, if it is a numpy Generator or an integer >= 0
    (`linalg.is_count`), else InvalidParameters."""
    if not (isinstance(seed, np.random.Generator) or linalg.is_count(seed)):
        raise InvalidParameters(
            f"seed={seed!r} must be an integer >= 0 or a numpy Generator")
    return seed
