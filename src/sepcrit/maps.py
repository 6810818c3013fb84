"""Positive maps, their Choi matrices, and CP decompositions.

A map on d x d matrices is stored canonically through its Choi matrix
C = sum_ij E_ij (x) L(E_ij).  The catalog covers the reduction map, the
(modified) transposition, the Breuer-Hall maps, the phi_{d,k} family,
the Theta[a; c_1..c_d] family, and the diagonal Kossakowski class, each
with an explicit decomposition L = L1 - L2 into two CP maps.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .errors import DimensionMismatch, InvalidParameters, NonHermitian
from .errors import NotAntisymmetric
from .linalg import DEFAULT_TOL, HERMITIAN_TOL, as_matrix, check_tol, dag


@dataclass(frozen=True, eq=False)
class MatrixMap:
    """Linear map on d x d matrices that preserves Hermiticity, held as
    its Choi matrix, which is then Hermitian (tested once, here, by
    `linalg.is_hermitian`).  A Choi matrix whose Frobenius norm is not
    finite raises InvalidParameters first: ||C||_F bounds X's clamp
    band, which at inf would zero X's whole spectrum.  Maps compare and
    hash by identity.  `cache` holds tables computed from the map, so
    that they go with it."""

    d: int
    choi: np.ndarray
    cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        _check_d(self.d)
        C = as_matrix(self.choi, "choi")
        if C.shape != (self.d * self.d,) * 2:
            raise DimensionMismatch(
                f"Choi shape {C.shape} != d^2 x d^2 = {self.d * self.d}"
            )
        with np.errstate(over="ignore"):  # ||C||_F bounds X's clamp band
            if not math.isfinite(linalg.fro(C)):
                raise InvalidParameters(
                    "Choi matrix Frobenius norm is not a finite number")
        if not linalg.is_hermitian(C):
            raise NonHermitian(
                f"Choi matrix is not Hermitian within tol={HERMITIAN_TOL}: "
                "the map does not preserve Hermiticity")
        object.__setattr__(self, "choi", C)
        self.choi.setflags(write=False)

    @linalg.lazy
    def superoperator(self) -> np.ndarray:
        """S with vec(L(X)) = vec(X) @ S for row-major vec, so that
        S[i*d + j, k*d + l] = L(E_ij)[k, l]: the Choi matrix with its
        block and in-block indices regrouped."""
        d = self.d
        S = self.choi.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(
            d * d, d * d
        )
        S.setflags(write=False)
        return S


@dataclass(frozen=True)
class CPDecomposition:
    """Decomposition L = lambda1 - lambda2 of a positive map into CP maps."""

    lambda1: MatrixMap
    lambda2: MatrixMap
    name: str
    indecomposable: Optional[bool] = None
    positivity_unverified: bool = False

    @property
    def d(self) -> int:
        return self.lambda1.d

    @linalg.lazy
    def lambda2_is_identity(self) -> bool:
        """Whether lambda2 is the identity map, so that X2 = rho."""
        return np.array_equal(self.lambda2.choi, identity_map(self.d).choi)

    @linalg.lazy
    def map(self) -> MatrixMap:
        """The difference map L = L1 - L2, built once, so that a
        `Spectra` finds its entry for it again."""
        return MatrixMap(self.d, self.lambda1.choi - self.lambda2.choi)

    @linalg.lazy
    def refutation(self) -> Optional[np.ndarray]:
        """A pure state |psi> that the map takes out of the PSD cone, or
        None.  Only a map whose positivity is unverified is sampled
        (`is_positive_sampled` with its defaults), once per
        decomposition."""
        if not self.positivity_unverified:
            return None
        return is_positive_sampled(self.map)[1]

    def check_positive(self) -> None:
        """Raise InvalidParameters if sampling refutes the map's
        positivity (`refutation`): a verdict of a map that is not
        positive need not be sound."""
        if self.refutation is not None:
            raise InvalidParameters(
                f"the {self.name} map is not positive: it maps a sampled "
                "pure state out of the PSD cone")


def check_map(m) -> None:
    """InvalidParameters naming m unless it is a MatrixMap; a
    CPDecomposition is told to pass its `.map`."""
    if not isinstance(m, MatrixMap):
        hint = ": pass its .map" if isinstance(m, CPDecomposition) else ""
        raise InvalidParameters(
            f"m must be a MatrixMap, got a {type(m).__name__}{hint}")


def _check_d(d, name: str = "d") -> None:
    if not linalg.is_dimension(d):
        raise InvalidParameters(f"{name}={d!r} must be a positive integer")


def map_from_action(d: int,
                    action: Callable[[np.ndarray], np.ndarray]) -> MatrixMap:
    """Build the Choi matrix by evaluating the action on the E_ij basis."""
    _check_d(d)
    C = np.zeros((d * d, d * d), dtype=complex)
    E = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E[i, j] = 1.0
            C[i * d:(i + 1) * d, j * d:(j + 1) * d] = action(E)
            E[i, j] = 0.0
    return MatrixMap(d, C)


def _stack(ms: tuple) -> tuple[int, np.ndarray]:
    """The d of the maps ms and their superoperators, stacked into one
    contiguous array; an empty tuple or one holding anything but
    MatrixMaps raises InvalidParameters, and maps of several d
    DimensionMismatch."""
    if not ms:
        raise InvalidParameters("m is an empty tuple of maps")
    for m in ms:
        check_map(m)
    d = ms[0].d
    if any(m.d != d for m in ms):
        raise DimensionMismatch(
            f"maps of d {sorted({m.d for m in ms})} in one call")
    return d, np.array([m.superoperator for m in ms])


def extend_apply(m: MatrixMap | tuple[MatrixMap, ...], rho,
                 dA: int) -> np.ndarray:
    """[I (x) L](rho) as one matmul; rho may be a stack (..., n, n).
    L(X) itself is extend_apply(m, X, 1).  A non-map m (`check_map`) or a
    dA that is not a positive integer raises InvalidParameters.

    m may also be a non-empty tuple of MatrixMaps of one d (`_stack`):
    the result then has a leading map axis, entry k being
    [I (x) m[k]](rho) with the bits of a call with m[k] alone.

    The dA x dA grid of dB x dB blocks of rho becomes a dA^2 x dB^2
    matrix, one flattened block per row, which the map's superoperator
    acts on from the right.  For a tuple, the superoperators are
    stacked into one contiguous array, so that numpy's matmul hands
    each map's product to BLAS as the one-map call does (an operand it
    cannot hand to BLAS takes numpy's own loop, whose bits differ).
    """
    _check_d(dA, "dA")
    rho = as_matrix(rho, "rho")
    try:
        dB, S = m.d, m.superoperator
    except AttributeError:  # a tuple of maps, or not a map (check_map)
        if not isinstance(m, tuple):
            check_map(m)
            raise
        dB, S = _stack(m)
    if rho.shape[-1] != dA * dB:
        raise DimensionMismatch(
            f"state dim {rho.shape[-1]} != dA*dB = {dA * dB}"
        )
    batch, shape = rho.shape[:-2], rho.shape
    rows = rho.reshape(batch + (dA, dB, dA, dB)).swapaxes(-3, -2).reshape(
        batch + (dA * dA, dB * dB)
    )
    if S.ndim == 3:  # a tuple's map axis leads, ahead of rho's batch axes
        S = S.reshape(S.shape[:1] + (1,) * len(batch) + S.shape[1:])
        batch, shape = S.shape[:1] + batch, S.shape[:1] + shape
    out = rows @ S
    return out.reshape(batch + (dA, dA, dB, dB)).swapaxes(-3, -2).reshape(
        shape
    )


def is_cp(m: MatrixMap, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity test: the Choi matrix is PSD within tol."""
    check_map(m)
    check_tol(tol)
    return bool(linalg.min_eigenvalue(m.choi)
                >= -tol * max(1.0, linalg.fro(m.choi)))


def is_positive_sampled(m: MatrixMap, n_samples: int = 200, seed: int = 0,
                        tol: float = DEFAULT_TOL):
    """Sampled necessary test of map positivity on Haar-random pure states.

    Returns (ok, witness): witness is a vector |psi> with
    L(|psi><psi|) not PSD when ok is False, else None.  A True result
    is only evidence, a False result is a certificate.
    """
    check_map(m)
    check_tol(tol)
    if not linalg.is_dimension(n_samples):
        raise InvalidParameters(
            f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not linalg.is_count(seed):
        raise InvalidParameters(
            f"seed must be >= 0 and an integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    d = m.d
    for _ in range(n_samples):
        psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi /= np.linalg.norm(psi)
        out = extend_apply(m, np.outer(psi, psi.conj()), 1)
        if linalg.min_eigenvalue(out) < -tol:
            return False, psi
    return True, None


# ---------------------------------------------------------------------------
# elementary building blocks

def identity_map(d: int) -> MatrixMap:
    return map_from_action(d, lambda X: X)


def transposition_map(d: int) -> MatrixMap:
    return map_from_action(d, lambda X: X.T)


def diagonal_pinch(X: np.ndarray) -> np.ndarray:
    """epsilon(X): keep the diagonal of X."""
    return np.diag(np.diag(X))


def shift_operator(d: int) -> np.ndarray:
    """Cyclic shift S|i> = |i+1 mod d> (zero-based)."""
    S = np.zeros((d, d), dtype=complex)
    for i in range(d):
        S[(i + 1) % d, i] = 1.0
    return S


def modified_transposition(U: np.ndarray) -> MatrixMap:
    """tau^U(X) = U X^T U^dag."""
    U = as_matrix(U, "U")
    d = U.shape[0]
    return map_from_action(d, lambda X: U @ X.T @ dag(U))


def default_breuer_unitary(d: int = 4) -> np.ndarray:
    """Antisymmetric anti-diagonal unitary with alternating +-1 entries.

    Only even d admits an antisymmetric unitary.
    """
    _check_d(d)
    if d % 2:
        raise InvalidParameters(
            f"d={d} is odd: an antisymmetric unitary requires even d")
    V = np.zeros((d, d), dtype=complex)
    for i in range(d):
        V[i, d - 1 - i] = (-1.0) ** i
    return V


def _check_breuer_unitary(U: np.ndarray) -> None:
    if not np.isfinite(U).all():
        raise InvalidParameters("U has a non-finite entry (nan or inf)")
    if linalg.fro(U.T + U) > DEFAULT_TOL * max(1.0, linalg.fro(U)):
        raise NotAntisymmetric("U^T != -U")
    gap = linalg.min_eigenvalue(np.eye(U.shape[0]) - dag(U) @ U)
    if gap < -DEFAULT_TOL:
        raise InvalidParameters(f"U^dag U exceeds identity (gap {gap})")


# ---------------------------------------------------------------------------
# catalog constructors

def reduction_decomposition(d: int) -> CPDecomposition:
    """R(X) = (Tr X) 1 - X, split as R1(X) = (Tr X) 1 and R2 = identity."""
    L1 = map_from_action(d, lambda X: np.trace(X) * np.eye(d))
    return CPDecomposition(L1, identity_map(d), "reduction",
                           indecomposable=False)


def _unitary(U, d) -> np.ndarray:
    """U as a matrix, by default `default_breuer_unitary(d)` with d = 4
    when d is None.  A d given with U must be U's size, else
    InvalidParameters."""
    if U is None:
        return default_breuer_unitary(4 if d is None else d)
    U = as_matrix(U, "U")
    if d is not None:
        _check_d(d)
        if d != len(U):
            raise InvalidParameters(f"d={d} is not the size {len(U)} of U")
    return U


def tau_u_decomposition(U: Optional[np.ndarray] = None,
                        d: Optional[int] = None) -> CPDecomposition:
    """tau^U = tau1 - tau2 with tau1 = (1/2) tau^U o R~ and
    tau2 = (1/2) tau^U o R; U defaults to `default_breuer_unitary(d)`,
    and a d given with U must be its size (`_unitary`)."""
    U = _unitary(U, d)
    d = len(U)

    def t1(X):
        return 0.5 * (U @ (np.trace(X) * np.eye(d) + X).T @ dag(U))

    def t2(X):
        return 0.5 * (U @ (np.trace(X) * np.eye(d) - X).T @ dag(U))

    return CPDecomposition(map_from_action(d, t1), map_from_action(d, t2),
                           "tau_u", indecomposable=False)


def _breuer_hall(sign: float, U, d, name: str,
                 indecomposable: bool) -> CPDecomposition:
    """(Tr X) 1 - sign U X^T U^dag - X with lambda2 = identity, U
    defaulting to `default_breuer_unitary(d)` (`_unitary`)."""
    U = _unitary(U, d)
    d = len(U)
    _check_breuer_unitary(U)
    L1 = map_from_action(
        d, lambda X: np.trace(X) * np.eye(d) - sign * (U @ X.T @ dag(U)))
    return CPDecomposition(L1, identity_map(d), name,
                           indecomposable=indecomposable)


def breuer_hall_decomposition(U: Optional[np.ndarray] = None,
                              d: Optional[int] = None) -> CPDecomposition:
    """L^U(X) = (Tr X) 1 - U X^T U^dag - X with lambda2 = identity.

    U must be finite and antisymmetric with U^dag U <= 1; it defaults
    to `default_breuer_unitary(d)`, d = 4 by default, and a d given with
    U must be its size.
    """
    return _breuer_hall(1.0, U, d, "breuer_hall", True)


def breuer_hall_tilde_decomposition(U: Optional[np.ndarray] = None,
                                    d: Optional[int] = None
                                    ) -> CPDecomposition:
    """L~^U(X) = (Tr X) 1 + U X^T U^dag - X with lambda2 = identity; U
    and d as for `breuer_hall_decomposition`."""
    return _breuer_hall(-1.0, U, d, "breuer_hall_tilde", False)


def phi_dk_decomposition(d: int, k: int) -> CPDecomposition:
    """phi_{d,k}(X) = (d-k) eps(X) + sum_{i=1}^k eps(S^i X S^i+) - X.

    k = 0 is CP, k = d-1 is the reduction map, and phi_{3,1} is the Choi
    map; 1 <= k <= d-2 are indecomposable.
    """
    _check_d(d)
    if not (linalg.is_count(k) and k <= d - 1):
        raise InvalidParameters(
            f"k={k!r} must be an integer from 0 to d-1 = {d - 1}")
    S = shift_operator(d)
    powers = [np.linalg.matrix_power(S, i) for i in range(1, k + 1)]

    def L1(X):
        out = (d - k) * diagonal_pinch(X)
        for Si in powers:
            out = out + diagonal_pinch(Si @ X @ dag(Si))
        return out

    return CPDecomposition(map_from_action(d, L1), identity_map(d), "phi_dk",
                           indecomposable=(1 <= k <= d - 2))


def _theta_parameters(a, c) -> tuple[float, np.ndarray]:
    """a as a float and c as a 1-D float64 array (`linalg.as_real`),
    else InvalidParameters."""
    a, c = linalg.as_real(a, "a"), linalg.as_real(c, "c")
    if a.ndim:
        raise InvalidParameters(f"theta a must be one number, not {a}")
    if c.ndim != 1 or not c.size:
        raise InvalidParameters(f"theta c must be a list c_1,..,c_d, not {c}")
    return float(a), c


def theta_positivity(a: float, c) -> dict:
    """Positivity/indecomposability conditions for Theta[a; c_1..c_d]."""
    a, c = _theta_parameters(a, c)
    d = len(c)
    if not (0 < a < math.inf and np.all((0 < c) & (c < math.inf))):
        raise InvalidParameters("a and all c_i must be positive and finite")
    geo_mean = float(np.exp(np.mean(np.log(c))))
    positive = geo_mean >= d - a and a >= d - 1
    return {"positive": positive, "indecomposable": positive and a < d}


def theta_decomposition(a: float, c) -> CPDecomposition:
    """Theta[a; c_1..c_d] = Theta1 - I.

    Theta1(X) = a eps(X) + diag(c_d, c_1, .., c_{d-1}) eps(S X S+).
    Requires the positivity conditions a >= d-1 and geomean(c) >= d-a.
    """
    a, c = _theta_parameters(a, c)
    cond = theta_positivity(a, c)
    d = len(c)
    if not cond["positive"]:
        raise InvalidParameters(
            "Theta positivity requires a >= d-1 and (c_1..c_d)^(1/d) >= d-a"
        )
    S = shift_operator(d)
    D = np.diag(np.roll(c, 1).astype(complex))

    def L1(X):
        return a * diagonal_pinch(X) + D @ diagonal_pinch(S @ X @ dag(S))

    return CPDecomposition(map_from_action(d, L1), identity_map(d), "theta",
                           indecomposable=cond["indecomposable"])


def identity_decomposition(d: int) -> CPDecomposition:
    """Trivial decomposition I = (2I) - I, useful for plumbing tests."""
    two = MatrixMap(d, 2 * identity_map(d).choi)
    return CPDecomposition(two, identity_map(d), "identity",
                           indecomposable=False)


def transposition_decomposition(d: int) -> CPDecomposition:
    """Plain transposition via tau^U with U = identity."""
    _check_d(d)
    dec = tau_u_decomposition(np.eye(d))
    return CPDecomposition(dec.lambda1, dec.lambda2, "transposition",
                           indecomposable=False)


def kossakowski_decomposition(a) -> CPDecomposition:
    """Diagonal Kossakowski-class map phi = phi1 - I.

    a holds the d^2 entries a_ij, flat (row-major) or as a d x d matrix.
    phi1(|i><i|) = sum_j (a_ij + delta_ij) |j><j| and phi1 kills the
    off-diagonal matrix units.  CP of phi1 requires a_ij + delta_ij >= 0.
    Positivity of phi is never certified (positivity_unverified), only
    sampled, once per decomposition (`CPDecomposition.refutation`): a
    map spec and the first inequality evaluated with it raise
    InvalidParameters if sampling refutes it.
    """
    A = linalg.as_real(a, "a")
    d = math.isqrt(A.size)
    if A.shape not in ((d * d,), (d, d)):
        raise InvalidParameters(f"kossakowski a must have d^2 entries, flat "
                                f"or d x d, not shape {A.shape}")
    A = A.reshape(d, d)
    if not np.all((A + np.eye(d) >= 0) & (A < math.inf)):
        raise InvalidParameters("require finite a_ij, a_ij + delta_ij >= 0")

    B = (A + np.eye(d)).astype(complex)

    def L1(X):
        return np.diag(np.diag(X) @ B)

    return CPDecomposition(map_from_action(d, L1), identity_map(d),
                           "kossakowski", positivity_unverified=True)


# ---------------------------------------------------------------------------
# the catalog by family name, and map-spec strings such as "reduction d=3"

_FAMILIES = {
    "reduction": reduction_decomposition,
    "identity": identity_decomposition,
    "transposition": transposition_decomposition,
    "tau_u": tau_u_decomposition,
    "breuer_hall": breuer_hall_decomposition,
    "breuer_hall_tilde": breuer_hall_tilde_decomposition,
    "phi_dk": phi_dk_decomposition,
    "theta": theta_decomposition,
    "kossakowski": kossakowski_decomposition,
}


def make_decomposition(family: str, **params) -> CPDecomposition:
    """Construct a catalog decomposition by family name.  params are
    exactly the family constructor's parameters: an unknown or missing
    one raises InvalidParameters, as does a map whose positivity is
    unverified and which sampling refutes (`CPDecomposition.check_positive`)."""
    ctor = _FAMILIES.get(family)
    if ctor is None:
        raise InvalidParameters(
            f"unknown map family {family!r}; known: {sorted(_FAMILIES)}")
    sig = inspect.signature(ctor)
    try:
        sig.bind_partial(**params)  # an unknown key, before a missing one
        sig.bind(**params)
    except TypeError as exc:
        keys = ", ".join(sig.parameters)
        raise InvalidParameters(
            f"map family {family!r} ({keys}): {exc}") from None
    dec = ctor(**params)
    dec.check_positive()
    return dec


# The largest d a map spec takes: a 1024 x 1024 Choi matrix.
MAX_SPEC_D = 32

# theta's c sets d by its length, kossakowski's a holds d^2 entries.
_D_POWER = {"c": 1, "a": 2}


def _spec_value(key: str, text: str):
    """d (1 to MAX_SPEC_D) and k take an integer, any other key a finite
    number or a comma-separated list of them (for c and a, of a d up to
    MAX_SPEC_D)."""
    try:
        if key in ("d", "k"):
            n = int(text)
            if key == "k" or 1 <= n <= MAX_SPEC_D:
                return n
        else:
            x = [float(t) for t in text.split(",")]
            power = _D_POWER.get(key)
            if power and len(x) > MAX_SPEC_D ** power:
                raise InvalidParameters(
                    f"map parameter {key} has {len(x)} entries, more than "
                    f"the {MAX_SPEC_D ** power} of d = {MAX_SPEC_D}")
            if all(map(math.isfinite, x)):
                return x if "," in text else x[0]
    except ValueError:
        pass
    rule = {"d": f"an integer from 1 to {MAX_SPEC_D}", "k": "an integer"}.get(
        key, "a finite number or a comma-separated list of them")
    raise InvalidParameters(f"map parameter {key}={text!r} must be {rule}")


def parse_map_spec(spec: str) -> CPDecomposition:
    """Build a catalog decomposition from a 'family key=value ...' string
    such as "reduction d=3", "theta a=2 c=1,1,1" or "tau_u d=4".

    The keys are the family constructor's parameters (`make_decomposition`),
    each given once.  A malformed spec raises InvalidParameters.
    """
    tokens = spec.split()
    if not tokens:
        raise InvalidParameters("empty map spec")
    family, params = tokens[0], {}
    for token in tokens[1:]:
        key, eq, text = token.partition("=")
        if not eq:
            raise InvalidParameters(f"bad map parameter {token!r}")
        if key in params:
            raise InvalidParameters(f"map parameter {key!r} given twice")
        params[key] = _spec_value(key, text)
    return make_decomposition(family, **params)
