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
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import linalg
from .errors import (
    AllProjectionsVanish,
    CommutativityViolated,
    DimensionMismatch,
    InvalidParameters,
    ParameterOutOfRange,
    PowerOverflow,
    SingularNegativePower,
    SingularOperand,
)
from .linalg import DEFAULT_TOL, check_tol
from .linalg import TOL_CEILING, TOL_FLOOR  # noqa: F401 (criteria's API)
from .maps import CPDecomposition, MatrixMap, check_map, extend_apply
from .states import DensityMatrix


class Kind(enum.Enum):
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    ENTROPIC = "ENTROPIC"
    PPT = "PPT"

    # Members compare by identity, so they may hash by it.  Enum's own
    # __hash__ (hash of the name) is a Python-level call, and `_route`'s
    # cache hashes a Kind on every one-state call: it cost more than the
    # rest of the key
    __hash__ = object.__hash__


# The kinds the per-call path tests for, as module globals: reading an
# Enum member off its class costs about five times a global read
_I, _III, _IV = Kind.I, Kind.III, Kind.IV


class CriterionResult(NamedTuple):
    lhs: float
    rhs: float
    margin: float  # sign-adjusted: margin < 0 <=> inequality violated
    violated: bool
    kind: Kind
    tol: float
    commutator_norm: Optional[float] = None


class ResultStack:
    """One criterion's results on a stack of states.  `lhs`, `rhs`,
    `margin`, `violated` and `commutator_norm` are lists with one entry
    per state (Python floats and bools; commutator norms are None where
    none is reported); `kind` and `tol` hold for every state.  `lhs`,
    `rhs` and `commutator_norm` are kept as the kernel gave them (an
    array, or one float or None for every state) until first read: the
    CSV and table1 read only `violated` and `margin`.

    `res[k]` (k an int) is state k's CriterionResult, with the bits of
    its one-state call, and iteration yields them in order; nothing is
    built per state until it is read.  Two stacks are equal when every
    field is."""

    def __init__(self, lhs, rhs, margin, violated, kind, tol,
                 commutator_norm):
        self.margin, self.violated, self.kind, self.tol = (
            margin, violated, kind, tol)
        self._kernel = lhs, rhs, commutator_norm

    def _column(self, i: int) -> list:
        x = self._kernel[i]
        return (x.tolist() if isinstance(x, np.ndarray)
                else [x] * len(self.margin))

    lhs = linalg.lazy(lambda self: self._column(0))
    rhs = linalg.lazy(lambda self: self._column(1))
    commutator_norm = linalg.lazy(lambda self: self._column(2))

    def __len__(self) -> int:
        return len(self.margin)

    def __getitem__(self, k: int) -> CriterionResult:
        return tuple.__new__(CriterionResult, (
            self.lhs[k], self.rhs[k], self.margin[k], self.violated[k],
            self.kind, self.tol, self.commutator_norm[k]))

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __eq__(self, other):
        if not isinstance(other, ResultStack):
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f)
                   for f in CriterionResult._fields)


def _verdicts(lhs, rhs, reversed_: bool, kind: Kind, tol: float,
              commutator=None) -> list[CriterionResult] | ResultStack:
    """The results of a kernel's output, by the verdict rule: the
    sign-adjusted margin of lhs against rhs is violated when it lies
    below -tol * max(1, |lhs|, |rhs|).  A margin that is not a finite
    float raises PowerOverflow naming the side that is not, never a
    verdict.

    Output with no batch axis gives a list of one CriterionResult, else
    (one batch axis) one ResultStack, whose margins and scales are array
    arithmetic and whose verdicts apply the rule to each state's floats,
    as a single state's does.  A scalar rhs holds for every state."""
    if not isinstance(lhs, np.ndarray) or lhs.ndim == 0:
        lhs, rhs = float(lhs), float(rhs)
        margin = (rhs - lhs) if reversed_ else (lhs - rhs)
        if not math.isfinite(margin):
            raise _non_finite(lhs, rhs)
        scale = max(1.0, abs(lhs), abs(rhs))
        # tuple.__new__ skips the NamedTuple's Python-level __new__,
        # about a third of the cost of a result
        return [tuple.__new__(CriterionResult, (
            lhs, rhs, margin, bool(margin < -tol * scale), kind, tol,
            commutator))]
    margins = (rhs - lhs) if reversed_ else (lhs - rhs)
    if np.count_nonzero(np.isfinite(margins)) < margins.size:
        raise _non_finite(lhs, rhs)
    margins = margins.tolist()
    scales = np.maximum(np.abs(lhs), np.abs(rhs))
    violated = [bool(margin < -tol * scale) for margin, scale in zip(
        margins, np.maximum(scales, 1.0, out=scales).tolist())]
    return ResultStack(lhs, rhs, margins, violated, kind, tol, commutator)


def _non_finite(lhs, rhs) -> PowerOverflow:
    """PowerOverflow naming lhs, else rhs, as not a finite float (on some
    state of a stack).  Each kernel's sides are >= 0 up to rounding, or
    its rhs is 0, so their difference cannot overflow: where a margin is
    not finite, a side is not."""
    side = "lhs" if not np.isfinite(lhs).all() else "rhs"
    return PowerOverflow(f"{side} is not a finite float (a sum overflowed)")


_BETA_OK = {
    Kind.I: lambda beta: beta >= 1,
    Kind.II: lambda beta: 0 <= beta <= 1,
    Kind.III: lambda beta: -1 <= beta < 0,
    Kind.IV: lambda beta: beta >= 0,
}


def route_kind(beta: float) -> Kind:
    """Default inequality kind for a given beta: the first of II, I and
    III whose range (`_BETA_OK`) holds it."""
    linalg.check_real(beta, "beta")
    for kind in (Kind.II, Kind.I, Kind.III):
        if _BETA_OK[kind](beta):
            return kind
    if math.isnan(beta):
        raise ParameterOutOfRange(f"beta={beta} is not a number")
    raise ParameterOutOfRange(f"beta={beta} < -1")


def _validate_range(alpha: float, beta: float, kind: Kind) -> None:
    """alpha and beta are real numbers, alpha >= 0 (inf is the limit of
    the same inequality) and beta finite, in the range of kind, one of
    I-IV."""
    linalg.check_real(alpha, "alpha")
    linalg.check_real(beta, "beta")
    beta_ok = _BETA_OK.get(kind) if isinstance(kind, Kind) else None
    if beta_ok is None:
        raise ParameterOutOfRange(f"kind {kind} is not one of I, II, III, IV")
    if not alpha >= 0:  # NaN fails too
        raise ParameterOutOfRange(f"alpha={alpha} must be >= 0")
    if not (math.isfinite(beta) and beta_ok(beta)):
        raise ParameterOutOfRange(f"beta={beta} invalid for kind {kind.value}")


# Entries an exponent-keyed cache (`Spectra.power`, `_MapSpectrum.power`
# and `_MapSpectrum.pairing`) holds before it is emptied: a long-lived
# Spectra, such as table1's grid, would otherwise keep an array for every
# exponent it was ever asked for.
POWER_CACHE_SIZE = 16


@lru_cache(maxsize=POWER_CACHE_SIZE ** 2, typed=True)
def _route(alpha: float, beta: float, kind: Kind | str | None) -> Kind:
    """The Kind that (alpha, beta, kind) evaluates: kind None is routed
    by beta (`route_kind`), a str is a Kind name, and the triple must
    pass `_validate_range`.

    A typed LRU of POWER_CACHE_SIZE ** 2 triples (one per pair of the
    alphas and betas a state's power caches keep): 2 and 2+0j hash and
    compare equal, but only one is valid, and typed keys keep them
    apart, so validity never depends on earlier calls.  A triple that
    raised is never kept; an unhashable one is refused by `__wrapped__`."""
    if kind is None:
        kind = route_kind(beta)
    elif isinstance(kind, str):
        kind = Kind.__members__.get(kind, kind)
    _validate_range(alpha, beta, kind)
    return kind


# ---------------------------------------------------------------------------
# the spectral core: Tr rho^a X^b = sum_ij lam_i^a |<u_i|v_j>|^2 mu_j^b for
# rho = sum_i lam_i |u_i><u_i| and X = sum_j mu_j |v_j><v_j|.
#
# The kernels below take arrays with an optional leading batch axis, one
# state per entry, so a stack of states and a single state go through the
# same arithmetic; every reduction keeps the bits of a one-state call.

def _weights(X, U) -> np.ndarray:
    """(U^dag X U)_ii (stackable)."""
    return np.einsum("...ji,...ji->...i", U.conj(), X @ U).real


def _family_table(m: MatrixMap, family) -> np.ndarray:
    """D[i, j] = Re(V^dag [I (x) L](O_i) V)_jj for the family's O_i and
    basis V, kept in m.cache: by linearity, sum_i c_i D[i] are the
    weights of [I (x) L](sum_i c_i O_i) in V, for any map."""
    D = m.cache.get(family)
    if D is None:
        V = family.vectors
        X = extend_apply(m, np.stack(family.operators), family.dA)
        D = m.cache[family] = _weights(X, V)
        D.setflags(write=False)
    return D


def _power(w: np.ndarray, t: float, name: str,
           to: str = "the power ") -> np.ndarray:
    """w ** t (`linalg.powered`) for the clamped, ascending spectrum w of
    `name` (stackable), or PowerOverflow naming it, its top eigenvalue and
    "{to}{t}" where that power is not a finite float: checked for t > 1
    only (below, w ** t <= max(1, w)) by one `math.pow` of the top."""
    if t > 1:  # one state's top is read without a numpy reduction
        top = float(w[-1] if w.ndim == 1 else w[..., -1].max(initial=0.0))
        try:
            math.pow(top, t)
        except OverflowError:
            raise PowerOverflow(
                f"{name}'s largest eigenvalue {top} raised to {to}{t} "
                "overflows a float") from None
    return linalg.powered(w, t)


def _keep(cache: dict, t: float, value: np.ndarray) -> np.ndarray:
    """value, made read-only and kept as cache[t]; a cache holding
    POWER_CACHE_SIZE entries is emptied first.  A value whose computation
    raised is never kept, so the error comes again on every call."""
    if len(cache) >= POWER_CACHE_SIZE:
        cache.clear()
    value.setflags(write=False)
    cache[t] = value
    return value


class _MapSpectrum:
    """X = [I (x) L](rho) and its spectral data for one map and tol, on one
    state or a stack of states.

    The weights (U^dag X U)_ii in rho's eigenbasis U give Tr rho^a X
    without an eigensolve.  `Spectra._build` makes them, with X on a
    dense stack; on a paper family they come from the map's
    `_family_table`, and X is built only when read.  X's spectrum and
    its overlap with rho's eigenbasis are computed on first use, and
    so are the powers of that spectrum and the pairing vectors, one per
    exponent (`POWER_CACHE_SIZE`).
    """

    def __init__(self, m: MatrixMap, sp: Spectra, weights: np.ndarray,
                 X: Optional[np.ndarray] = None):
        self.map, self.tol, self._dA, self._fro = m, sp.tol, sp.dA, sp.fro
        self._matrix, self._vectors = sp._matrix, sp._vectors
        self._powers: dict = {}
        self._pairings: dict = {}
        self.weights = weights
        if X is not None:
            self.X = X

    @linalg.lazy
    def X(self) -> np.ndarray:
        return extend_apply(self.map, self._matrix(), self._dA)

    @linalg.lazy
    def eig(self) -> linalg.HermitianEig:
        return linalg.hermitian_eig(self.X)

    @linalg.lazy
    def mu(self) -> np.ndarray:
        """Eigenvalues of X after the clamp rule."""
        return linalg.clamp_psd(self.eig.eigenvalues, self.tol)

    @linalg.lazy
    def overlap(self) -> np.ndarray:
        """|<u_i|v_j>|^2 for rho's eigenvectors u_i and X's v_j."""
        U = self._vectors()
        return np.abs(linalg.dag(U) @ self.eig.eigenvectors) ** 2

    @linalg.lazy
    def commutator(self):
        """||[X, rho]||_F (stackable), which kind I requires to vanish."""
        return linalg.commutator_norm(self.X, self._matrix())

    @linalg.lazy
    def checked_commutator(self):
        """`commutator`, if within tol * max(1, ||rho||_F) (`Spectra.fro`)
        on every state, else CommutativityViolated for the first state
        beyond it, on every read."""
        norm = self.commutator
        bound = self.tol * np.maximum(1.0, self._fro)
        bad = np.ravel(norm > bound)
        if bad.any():
            k = bad.argmax()
            raise CommutativityViolated(
                f"[X2, rho] norm {float(np.ravel(norm)[k])} exceeds "
                f"tolerance {float(np.ravel(bound)[k])}")
        return norm

    def power(self, t: float) -> np.ndarray:
        """mu ** t (`_power`), kept per t: X's singular values raised to
        t, as kind IV pairs them."""
        out = self._powers.get(t)
        if out is None:
            out = _keep(self._powers, t, _power(self.mu, t, "X", "beta="))
        return out

    def pairing(self, beta: float) -> np.ndarray:
        """The vector p with Tr rho^a X^beta = vecdot(lam^a, p) for every
        a, lam rho's clamped spectrum: sum_j |<u_i|v_j>|^2 mu_j^beta,
        kept per beta.  At beta = 1 it is the weights (no eigensolve)."""
        if beta == 1:
            return self.weights
        out = self._pairings.get(beta)
        if out is None:
            out = _keep(self._pairings, beta,
                        np.matvec(self.overlap, self.power(beta)))
        return out


def _alpha_beta(sp: Spectra, dec: CPDecomposition, alpha: float,
                beta: float, kind: Kind | str | None = None
                ) -> list[CriterionResult] | ResultStack:
    """The (alpha, beta)-inequality on every state of sp, at sp.tol, of
    the Kind that `_route` finds for (alpha, beta, kind).  Kind III reads
    reversed; kind I with a map lambda2 reports the commutator norm.  At
    alpha = inf it is the limit of the same inequality (`_limit`) against
    0.  A map that sampling shows is not positive
    (`CPDecomposition.check_positive`) raises InvalidParameters: its
    verdicts would not be sound.  So does a dec that is not a
    CPDecomposition, such as its bare map.

    Each side is one dot product (`linalg.vecdot`) of lam^alpha
    (`Spectra.power`) with X's pairing vector, or for kind IV's rhs with
    X2's singular values raised to beta, all kept on sp; a lambda2 that
    is the identity has X2 = rho, and sp serves as its entry."""
    if not isinstance(dec, CPDecomposition):
        raise InvalidParameters(f"dec must be a CPDecomposition, got a "
                                f"{type(dec).__name__}")
    dec.check_positive()
    try:
        kind = _route(alpha, beta, kind)
    except TypeError:  # an unhashable argument, which is refused uncached
        kind = _route.__wrapped__(alpha, beta, kind)
    X1 = sp.map(dec.lambda1)
    X2 = sp if dec.lambda2_is_identity else sp.map(dec.lambda2)
    commutator = X2.checked_commutator if kind is _I and X2 is not sp else None
    name = "X1"  # the operand a SingularOperand names
    try:
        p1 = X1.pairing(beta)
        name = "X2"
        # kind IV pairs X2's singular values, its clamped spectrum: ascending
        p2 = X2.power(beta) if kind is _IV else X2.pairing(beta)
    except SingularNegativePower as exc:
        raise SingularOperand(f"{name} singular for beta={beta}") from exc
    if alpha == math.inf:
        d = p1 - (p2[..., ::-1] if kind is _IV else p2)
        return _verdicts(_limit(sp, -d if kind is _III else d), 0.0, False,
                         kind, sp.tol, commutator)
    lam_a = sp.power(alpha)
    lhs = linalg.vecdot(lam_a, p1)
    # np.vecdot, as the reversed view's bits need (`linalg.vecdot`)
    rhs = (np.vecdot(lam_a[..., ::-1], p2) if kind is _IV
           else linalg.vecdot(lam_a, p2))
    return _verdicts(lhs, rhs, kind is _III, kind, sp.tol, commutator)


def _limit(sp: Spectra, d: np.ndarray) -> np.ndarray:
    """The alpha -> inf limit of vecdot(lam^alpha, d) / lam_max^alpha at
    sp.tol on every state of sp, for d on rho's eigenvalues (ascending):
    the sum of d over the top eigenvalue group, or over the next group
    where that sum is within tol of 0.  ||rho||_F (`Spectra.fro`) scales
    the groups.

    Each state's walk takes the eigenvalue groups from the top, one
    group per step for the whole stack.  A group is the run of
    eigenvalues within tol * ||rho||_F below its top one; its entries of
    d are summed as one slice, as a one-state walk sums them.
    """
    shape, dim, tol = d.shape[:-1], d.shape[-1], sp.tol
    w, d = sp.eigenvalues.reshape(-1, dim), d.reshape(-1, dim)
    band = np.reshape(tol * sp.fro, -1)
    out = np.empty(len(w))
    # w, d, band and top (each next group's top, at first the last
    # index of every state) hold live states only
    live, top = np.arange(len(w)), dim - 1
    while True:
        # w ascends, so a group starts at the first False (argmin)
        j = (w < (w[np.arange(len(w)), top] - band)[:, None]).argmin(-1)
        size = top - j + 1
        sizes = np.bincount(size).nonzero()[0].tolist()
        # a group of one sums to its entry, read without a gather; sizes
        # ascend, so the larger groups follow (all at once when all
        # sizes are equal)
        val = d[np.arange(len(d)), j]
        for n in sizes[sizes[:1] == [1]:]:
            pick = size == n if len(sizes) > 1 else slice(None)
            val[pick] = linalg.gather_last(
                d[pick], j[pick, None] + np.arange(n)).sum(-1)
        out[live], miss = val, ~(np.abs(val) > tol)  # NaN walks on
        if not np.count_nonzero(miss):
            return out.reshape(shape)
        live, top, w, d, band = (a[miss] for a in (live, j - 1, w, d, band))
        if (top < 0).any():
            raise AllProjectionsVanish(
                "Tr(X P) vanished for every eigen-group")


def check_entropic_alpha(alpha: float, name: str = "alpha") -> float:
    """alpha, if it is an entropic power (a real number, finite, >= 0
    and != 1), else ParameterOutOfRange naming it as `name`."""
    linalg.check_real(alpha, name)
    if not math.isfinite(alpha) or alpha < 0 or alpha == 1:
        raise ParameterOutOfRange(
            f"{name}={alpha} must be finite, >= 0 and != 1")
    return alpha


def _entropic(sp: Spectra, alpha: float,
              subsystem: str = "A") -> list[CriterionResult] | ResultStack:
    """The entropic inequality on every state of sp, at sp.tol: lhs
    Tr rho_sub^a and rhs Tr rho^a from the clamped spectra of the
    marginal and of rho, read reversed for a < 1.  There the mass the
    clamp takes from rho's spectrum is cut off the bottom of the
    marginal's too: that keeps a separable rho's spectrum majorized by
    its marginal's (Nielsen and Kempe, PRL 86, 5184 (2001)), so the
    clamp cannot read it VIOLATED."""
    check_entropic_alpha(alpha)
    marg = sp.marginal(subsystem)
    if alpha < 1:
        m = np.maximum((sp.eigenvalues - sp.lam).sum(-1), 0.0)[..., None]
        marg = np.minimum(np.maximum(np.cumsum(marg, -1) - m, 0.0), marg)
    return _verdicts(_power(marg, alpha, f"rho_{subsystem}").sum(-1),
                     sp.power(alpha).sum(-1), alpha < 1,
                     Kind.ENTROPIC, sp.tol)


# ---------------------------------------------------------------------------
# spectral data of a stack, and of one state as its cache

def _check_state(rho) -> None:
    """InvalidParameters naming rho unless it is a DensityMatrix."""
    if not isinstance(rho, DensityMatrix):
        raise InvalidParameters(
            f"rho must be a DensityMatrix, got a {type(rho).__name__}")


class Spectra:
    """The arrays the criteria read, for states on one C^dA (x) C^dB at
    one tol, each computed for the whole stack on first use.  A tol
    outside [TOL_FLOOR, TOL_CEILING] raises ParameterOutOfRange.

    `rho` is one state or a stack (a DensityMatrix either way).  Arrays
    carry a stack's states on a leading batch axis; a single state gives
    them none.  `map(m)` holds X = [I (x) L](rho) and its weights (one
    matmul; on a paper family, a table), and `fill(ms)` builds many
    maps' entries in one stacked matmul; `marginal(keep)` holds that
    marginal's clamped spectrum (one eigensolve, or a table of
    `Family.marginal_tables`), `ppt` the partial transpose's minimum
    eigenvalue (one eigvalsh, or `Family.pt_table`), `fro` ||rho||_F,
    `lam` rho's clamped spectrum and `power(t)` lam ** t, kept per
    exponent (`POWER_CACHE_SIZE`).  rho's matrix and eigenvectors are
    read only where a criterion needs them, through `rho.builders`: the
    state, its every Spectra and their map entries share one build of
    each, and none of them refers to rho.  A stack gives each state the
    bits of a one-state call.  A rho that is not a DensityMatrix raises
    InvalidParameters; so does an m that is not a MatrixMap
    (`maps.check_map`), and a map whose d is not dB DimensionMismatch,
    when its entry is first built.

    A state's cache is its Spectra: `Spectra.of(rho, tol)` is
    rho.cache[tol], and the one-state criteria read only that.
    """

    def __init__(self, rho: DensityMatrix, tol: float = DEFAULT_TOL):
        _check_state(rho)
        self.tol = check_tol(tol)
        self.dA, self.dB, self.family = rho.dA, rho.dB, rho.family
        self.eigenvalues = rho.eigenvalues
        self._matrix, self._vectors = rho.builders
        self._maps: dict = {}
        self._marginals: dict = {}
        self._powers: dict = {}

    @classmethod
    def of(cls, rho: DensityMatrix, tol: float = DEFAULT_TOL) -> Spectra:
        """rho's Spectra at tol, built on first use and kept in
        rho.cache[tol].  A stack raises DimensionMismatch: its states
        are evaluated through `Spectra(rho, tol)`."""
        try:
            sp = rho.cache.get(tol)
        except (TypeError, AttributeError):
            # an unhashable tol or a rho that is not a state, both refused
            sp = None
        if sp is None:
            _check_state(rho)
            if rho.eigenvalues.ndim != 1:
                raise DimensionMismatch(
                    f"expected one state, got a stack of shape {rho.shape}")
            sp = rho.cache[tol] = cls(rho, tol)
        return sp

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix()

    @linalg.lazy
    def fro(self):
        """||rho||_F from its spectrum (`linalg.spectral_fro`): the scale
        of the limit witness's groups and kind I's commutator threshold."""
        return linalg.spectral_fro(self.eigenvalues)

    @linalg.lazy
    def lam(self) -> np.ndarray:
        """rho's eigenvalues after the clamp rule, in the band of `fro`."""
        return linalg.clamp_psd(self.eigenvalues, self.tol, self.fro)

    def power(self, t: float) -> np.ndarray:
        """lam ** t (`_power`), kept per t."""
        out = self._powers.get(t)
        if out is None:
            out = _keep(self._powers, t, _power(self.lam, t, "rho"))
        return out

    # A Spectra is also the entry of X = rho (a lambda2 that is the
    # identity): its overlap with rho's eigenbasis is the identity and
    # mu = lam, so its pairing vector and its singular values raised to
    # beta are both lam ** beta
    pairing = power

    def map(self, m: MatrixMap) -> _MapSpectrum:
        entry = self._maps.get(m) if isinstance(m, MatrixMap) else None
        if entry is None:
            check_map(m)
            if m.d != self.dB:
                raise DimensionMismatch(
                    f"map d={m.d} != state dB = {self.dB}")
            self._build((m,))
            entry = self._maps[m]
        return entry

    def fill(self, ms) -> None:
        """Build, in one `_build`, the entries of those maps of ms that
        are MatrixMaps of d = dB and have none yet.  Anything else is
        left for `map(m)`, so that it raises its error when its own
        criterion reads it, in that criterion's order; fill raises
        nothing."""
        new = tuple(dict.fromkeys(
            m for m in ms if isinstance(m, MatrixMap) and m.d == self.dB
            and m not in self._maps))
        if new:
            self._build(new)

    def _build(self, ms: tuple[MatrixMap, ...]) -> None:
        """The entries of the maps ms (MatrixMaps of d = dB, none built
        yet), kept in _maps.  On a dense stack their X are one stacked
        `extend_apply` and their weights one `_weights` pass, each map's
        with the bits of its own (one map takes the one-map call, which
        skips stacking superoperators).  On a paper family the maps'
        tables (`_family_table`), side by side, are one `linalg.combine`,
        and each map's weights are its block gathered in rho's basis
        `order` by one shared flat index: a C-contiguous (k, n) array (n
        for one state), as its one-map build is, since a strided view
        sends `linalg.vecdot` down another BLAS path, with other bits."""
        if self.family is None:
            one = len(ms) == 1
            X = extend_apply(ms[0] if one else ms, self._matrix(), self.dA)
            weights = _weights(X, self._vectors())
            entries = [(ms[0], weights, X)] if one else zip(ms, weights, X)
        else:
            family, coef, order = self.family
            W = linalg.combine(coef, np.concatenate(
                [_family_table(m, family) for m in ms], -1))
            # map i's entry j on state k sits at k * W.shape[-1] + i * n
            # + order[k, j] of the flat W
            n = order.shape[-1]
            idx = order + np.arange(0, W.size, W.shape[-1]).reshape(
                order.shape[:-1] + (1,))
            W = W.reshape(-1)
            entries = [(m, W[i * n:][idx], None) for i, m in enumerate(ms)]
        for m, weights, X in entries:
            self._maps[m] = _MapSpectrum(m, self, weights, X)

    def marginal(self, keep: str) -> np.ndarray:
        """The clamped spectrum of the marginal keeping `keep` ("A" or "B",
        else InvalidParameters): sum_i coef_i E[i], sorted, on a family
        with a table E in `Family.marginal_tables`, else eigh of the
        partial trace."""
        if keep not in ("A", "B"):  # compared, not hashed: keep may be a list
            raise InvalidParameters(f"keep must be 'A' or 'B', got {keep!r}")
        w = self._marginals.get(keep)
        if w is None:
            E = (None if self.family is None
                 else self.family[0].marginal_tables.get(keep))
            if E is None:
                w = linalg.hermitian_eig(linalg.partial_trace(
                    self.matrix, self.dA, self.dB, keep)).eigenvalues
            else:
                w = np.sort(linalg.combine(self.family[1], E), -1)
            w = self._marginals[keep] = linalg.clamp_psd(w, self.tol)
        return w

    @linalg.lazy
    def ppt(self):
        E = None if self.family is None else self.family[0].pt_table
        if E is not None:
            w = linalg.combine(self.family[1], E).min(-1)
            return w if w.ndim else float(w)
        return linalg.min_eigenvalue(
            linalg.partial_transpose(self.matrix, self.dA, self.dB))


# ---------------------------------------------------------------------------
# criterion objects: a label, `verdicts(sp)`, one result per state of sp
# (a list of one on a single state, a ResultStack on a stack), and `maps`,
# the maps whose entries it reads

class RegionCriterion(NamedTuple):
    """One labeled (alpha, beta)-inequality (alpha = inf is its limit),
    or the entropic inequality, evaluated at each grid point."""

    label: str
    dec: Optional[CPDecomposition]  # None means the entropic inequality
    alpha: float
    beta: float = 1.0
    kind: Kind | str | None = None  # a str is a Kind name

    def evaluate(self, rho: DensityMatrix,
                 tol: float = DEFAULT_TOL) -> CriterionResult:
        return self.verdicts(Spectra.of(rho, tol))[0]

    def verdicts(self, sp: Spectra) -> list[CriterionResult] | ResultStack:
        """The criterion on every state of sp, at sp.tol."""
        if self.dec is None:
            return _entropic(sp, self.alpha)
        return _alpha_beta(sp, self.dec, self.alpha, self.beta, self.kind)

    @property
    def maps(self) -> tuple:
        """The maps whose `Spectra` entries `verdicts` reads, for
        `Spectra.fill`, at every alpha: lambda1, and lambda2 unless it
        is the identity (X2 = rho); none unless dec is a CPDecomposition
        (the entropic inequality, or a bare map that `verdicts` refuses).
        It raises nothing: a decomposition's halves are MatrixMaps of one
        d, checked when it was built, and fill skips a map of another d
        than the state's, whose error is its `verdicts`' to raise."""
        if not isinstance(self.dec, CPDecomposition):
            return ()
        if self.dec.lambda2_is_identity:
            return (self.dec.lambda1,)
        return (self.dec.lambda1, self.dec.lambda2)


class PPT:
    """The PPT test: the partial transpose's minimum eigenvalue against 0."""

    label = "ppt"
    maps = ()  # it reads no map entry

    def verdicts(self, sp: Spectra) -> list[CriterionResult] | ResultStack:
        return _verdicts(sp.ppt, 0.0, False, Kind.PPT, sp.tol)


# ---------------------------------------------------------------------------
# the criteria on one state, through its cached Spectra

def alpha_beta_inequality(rho: DensityMatrix, dec: CPDecomposition,
                          alpha: float, beta: float,
                          kind: Kind | str | None = None,
                          tol: float = DEFAULT_TOL) -> CriterionResult:
    """Evaluate one of the four (alpha, beta)-inequalities on rho; with
    no kind, the one `route_kind(beta)` names.

    Kind I (beta >= 1) needs [X2, rho] = 0 unless lambda2 is the
    identity, in which case X2 = rho and the right-hand side is
    Tr rho^alpha rho^beta on rho's spectrum.  Kind III reverses the
    inequality direction; kind IV pairs descending eigenvalues of rho
    with ascending singular values of X2.  alpha = inf is the limit of
    the same inequality, for every beta and kind: the sum of X1's
    pairing vector minus X2's over rho's top eigenvalue group (the next
    group where that sum vanishes within tol), against 0.
    """
    return _alpha_beta(Spectra.of(rho, tol), dec, alpha, beta, kind)[0]


def entropic_inequality(rho: DensityMatrix, alpha: float, subsystem: str = "A",
                        tol: float = DEFAULT_TOL) -> CriterionResult:
    """Renyi-type inequality Tr rho_sub^a >= Tr rho^a (a > 1, reversed
    for a < 1); violation certifies entanglement.  At a = 0 the traces
    are ranks (0^0 := 0), so it is the rank test rank rho_sub <= rank rho.
    """
    return _entropic(Spectra.of(rho, tol), alpha, subsystem)[0]


def structural_criterion(rho: DensityMatrix, m: MatrixMap,
                         tol: float = DEFAULT_TOL) -> float:
    """Min eigenvalue of [I (x) L](rho); negative beyond tol detects
    entanglement.

    m is a bare MatrixMap, which carries no positivity record, so this
    call cannot refuse a map that is not positive: the value certifies
    entanglement only for a positive m.  For a decomposition's map, call
    `dec.check_positive()` first, as the (alpha, beta) criteria do."""
    return float(Spectra.of(rho, tol).map(m).eig.eigenvalues[0])


def ppt_check(rho: DensityMatrix, tol: float = DEFAULT_TOL) -> float:
    """Min eigenvalue of the partial transpose; >= -tol means PPT.
    On a stack it is `Spectra.ppt`."""
    return Spectra.of(rho, tol).ppt


def limit_witness(rho: DensityMatrix, m: MatrixMap,
                  tol: float = DEFAULT_TOL) -> float:
    """alpha -> infinity limit of Tr rho^alpha [I (x) L](rho) over
    lam_max^alpha, for the map L = m.

    Walks the eigenvalues of rho from the top in degenerate groups
    (grouping within tol * ||rho||_F) and returns Tr([I (x) L](rho) P)
    for the first group projector P with a non-vanishing trace.
    Negative value <=> detection.

    m is a bare MatrixMap, which carries no positivity record, so this
    call cannot refuse a map that is not positive, and a negative value
    certifies entanglement only for a positive m.  `alpha_beta_inequality`
    at alpha = inf is the limit of a decomposition's inequality, which at
    beta = 1, kind II walks lambda1's weights minus lambda2's, the same
    witness up to rounding; it refuses a map that sampling refutes.
    """
    sp = Spectra.of(rho, tol)
    return float(_limit(sp, sp.map(m).weights))

