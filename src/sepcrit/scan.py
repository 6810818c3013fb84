"""Parameter scans: Table-1 style gamma ranges by bisection, SO(3)
parameter-space region grids, single-state checks, and Choi dumps."""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple

import numpy as np

from . import linalg, maps
from .criteria import (
    PPT,
    TOL_FLOOR,
    CriterionResult,
    Kind,
    RegionCriterion,
    ResultStack,
    Spectra,
    check_tol,
    route_kind,  # noqa: F401 (scan.route_kind is part of scan's API)
)
from .errors import InvalidParameters
from .linalg import DEFAULT_TOL
from .maps import CPDecomposition, MatrixMap, parse_map_spec
from .states import DensityMatrix, horodecki_stack, so3_stack

# Verdict tolerance used when locating interval boundaries.  The default
# criterion tolerance (1e-9, relative) is meant to suppress false
# positives on single verdicts; for root bracketing it would bias the
# located boundary wherever margins are small (large alpha), so the
# bisection uses the smallest threshold a Spectra accepts instead.
BISECTION_CRITERION_TOL = TOL_FLOOR

# Spacing of table1's gamma grid on [2, 5], before bisection refines it.
GRID_STEP = 0.01


# ---------------------------------------------------------------------------
# Table-1 style gamma intervals

class GammaInterval(NamedTuple):
    lower: float = math.nan
    upper: float = math.nan
    lower_open: bool = True
    upper_open: bool = True
    empty: bool = False

    def __str__(self) -> str:
        if self.empty:
            return "--"
        lo = "(" if self.lower_open else "["
        hi = ")" if self.upper_open else "]"
        return f"{lo}{self.lower:.4f}, {self.upper:.4f}{hi}"


# Map specs whose table1 grid Spectra is kept, least recently used out.
GRID_CACHE_SIZE = 8


@lru_cache(maxsize=GRID_CACHE_SIZE)
def _grid_spectra(map_spec: str
                  ) -> tuple[np.ndarray, CPDecomposition, Spectra]:
    """table1's GRID_STEP grid on [2, 5] (read-only), the spec's
    decomposition and one Spectra of the grid's Horodecki stack at
    BISECTION_CRITERION_TOL (for the GRID_CACHE_SIZE most recently used
    specs).  The Spectra fills its map entries on first use, so a later
    table1 row with the spec runs only its alpha-dependent kernel."""
    dec = parse_map_spec(map_spec)
    grid = np.arange(2.0, 5.0 + GRID_STEP / 2, GRID_STEP)
    grid[-1] = 5.0
    grid.setflags(write=False)
    return grid, dec, Spectra(horodecki_stack(grid), BISECTION_CRITERION_TOL)


# Bisection levels whose midpoints table1 tests as one stack.
TREE_DEPTH = 4


def _midpoint_tree(x, y, depth: int) -> list:
    """The midpoints of the first `depth` levels of bisecting the
    bracket [x, y], heap-ordered: node k splits its span (x, y) at
    m = 0.5 * (x + y), node 2k+1 is the span (x, m) and node 2k+2 the
    span (m, y)."""
    spans, mids = [(x, y)], []
    for k in range(2 ** depth - 1):
        x, y = spans[k]
        m = 0.5 * (x + y)
        mids.append(m)
        spans += [(x, m), (m, y)]
    return mids


def table1(alpha: float, beta: float = 1.0,
           map_spec: str = "phi_dk d=3 k=1",
           kind: Kind | str | None = None,
           bisect_tol: float = 1e-4) -> GammaInterval:
    """Gamma range in [2, 5] where the (alpha, beta)-inequality derived
    from the given map is violated on the 3x3 test family.

    kind None is routed by beta (`route_kind`), and a str is a Kind
    name.  alpha = inf is the limit witness (beta = 1, kind II only).
    Boundaries are located on a GRID_STEP grid, tested as one stack, and
    refined by bisection to bisect_tol (finite, >= 1e-6).  The grid and
    its Spectra are built once per map spec (`_grid_spectra`), so a
    repeat call runs only the alpha-dependent kernel on them.

    Both boundaries are bisected together, several levels per stack.
    Each bracket still wider than bisect_tol gives the midpoints of its
    next `depth` bisection levels (`_midpoint_tree`): every midpoint a
    bisection of that bracket alone could visit, computed from the same
    operands, so with the same bits.  `depth` is the number of halvings
    the widest such bracket still needs, at most TREE_DEPTH, so a stack
    holds at most 2 x 15 states.  The trees of all these brackets are
    tested as one stack, and each bracket then walks its own tree from
    the root, taking the child its midpoint's verdict picks, while it is
    wider than bisect_tol.  A stack gives each state the bits of a
    one-state call, so every bracket ends where a bisection of it alone
    does.  No state is diagonalized: `horodecki_stack` has its
    eigenvectors from the family's algebra.
    """
    if not (linalg.is_real(bisect_tol) and math.isfinite(bisect_tol)
            and bisect_tol >= 1e-6):
        raise InvalidParameters(
            f"bisect_tol={bisect_tol!r} must be finite and >= 1e-6")
    if not isinstance(map_spec, str):
        raise InvalidParameters(f"map_spec={map_spec!r} must be a str")
    grid, dec, sp = _grid_spectra(map_spec)
    crit = RegionCriterion("gamma", dec, alpha, beta, kind)
    mask = crit.verdicts(sp).violated
    if not any(mask):
        return GammaInterval(empty=True)
    i0 = mask.index(True)
    i1 = len(mask) - 1 - mask[::-1].index(True)
    lower_open, upper_open = i0 > 0, i1 < len(grid) - 1
    # each bracket is [non-violating gamma, violating gamma]
    brackets = ([[grid[i0 - 1], grid[i0]]] if lower_open else []) + \
        ([[grid[i1 + 1], grid[i1]]] if upper_open else [])
    while live := [b for b in brackets if abs(b[1] - b[0]) > bisect_tol]:
        width = max(abs(b[1] - b[0]) for b in live)
        depth = 1
        while depth < TREE_DEPTH and width * 0.5 ** depth > bisect_tol:
            depth += 1
        trees = [_midpoint_tree(b[0], b[1], depth) for b in live]
        hits = crit.verdicts(Spectra(
            horodecki_stack([m for mids in trees for m in mids]),
            BISECTION_CRITERION_TOL)).violated
        n = 2 ** depth - 1
        for i, (b, mids) in enumerate(zip(live, trees)):
            k, tree_hits = 0, hits[i * n:(i + 1) * n]
            while k < n and abs(b[1] - b[0]) > bisect_tol:
                b[tree_hits[k]] = mids[k]  # a violating midpoint replaces b[1]
                k = 2 * k + 2 - tree_hits[k]
    ends = iter([0.5 * (b[0] + b[1]) for b in brackets])
    lower = next(ends) if lower_open else 2.0
    upper = next(ends) if upper_open else 5.0
    return GammaInterval(lower, upper, lower_open, upper_open)


# ---------------------------------------------------------------------------
# SO(3) region scans

class RegionResults(Mapping):
    """A region row's results, read-only: label -> CriterionResult,
    built on access from the ResultStack of each criterion on the row's
    stack (`so3_region`).  Its keys are the criterion labels, in order.

    The rows of one stack share its ResultStacks and one table of CSV
    cells per labels tuple, built on the first `cells` call with those
    labels by one zip of the stacks' lists; row k reads line k of it."""

    __slots__ = ("_stacks", "_tables", "_k")

    def __init__(self, stacks: dict[str, ResultStack], tables: dict, k: int):
        self._stacks, self._tables, self._k = stacks, tables, k

    def __getitem__(self, label: str) -> CriterionResult:
        return self._stacks[label][self._k]

    def __iter__(self):
        return iter(self._stacks)

    def __len__(self) -> int:
        return len(self._stacks)

    def cells(self, labels: list[str]) -> tuple:
        """violated, margin of each label in turn (an unknown label
        raises KeyError)."""
        key = tuple(labels)
        table = self._tables.get(key)
        if table is None:
            stacks = self._stacks
            table = self._tables[key] = list(zip(*[
                column for label in key
                for column in (stacks[label].violated, stacks[label].margin)
            ]))
        return table[self._k]


class ScanRow(NamedTuple):
    q: float
    r: float
    s: float
    ppt: bool
    results: RegionResults  # label -> CriterionResult


def so3_grid(p: float, resolution: int) -> Iterator[tuple[float, list]]:
    """The admissible (q, r) grid at fixed p, one q-row at a time.

    Yields (q, [(r, s), ...]) for each q with admissible points, r
    ascending, where s = 1 - p - q - r >= -1e-12.
    """
    p = _check_p(p)
    _check_resolution(resolution)
    rs = [j / resolution for j in range(resolution + 1)]
    for i in range(resolution + 1):
        q = i / resolution
        row = [(r, 1.0 - p - q - r) for r in rs if 1.0 - p - q - r >= -1e-12]
        if row:
            yield q, row


def _check_p(p) -> float:
    """p as a float, if it is a real number in [0, 1] (a float32 p is
    then computed with in float64, as `so3_stack` computes), else
    InvalidParameters."""
    if not (linalg.is_real(p) and 0.0 <= p <= 1.0):
        raise InvalidParameters(f"p={p!r} outside [0,1]")
    return float(p)


def _check_resolution(resolution) -> None:
    if not (linalg.is_dimension(resolution) and resolution >= 2):
        raise InvalidParameters(
            f"resolution must be an integer >= 2, got {resolution!r}")


def so3_grid_count(p: float, resolution: int) -> int:
    """Number of admissible (q, r) points of `so3_grid`."""
    return sum(len(row) for _, row in so3_grid(p, resolution))


# Grid points that so3_region evaluates as one stack (the last stack of
# a scan holds the rest).  The arrays of one stack bound a scan's memory
# (5 MiB with five criteria); from 128 to 512 the time per point is
# flat, and at 64 it is about 1.5x.
STACK_STATES = 256


def so3_region(p: float, criteria: list[RegionCriterion], resolution: int,
               tol: float = DEFAULT_TOL) -> Iterator[ScanRow]:
    """Scan the admissible (q, r) simplex at fixed p on a uniform grid.

    Emits rows in row-major (q outer, r inner) order; each row carries
    the PPT flag and every criterion's verdict.  The grid's points are
    built, validated and evaluated STACK_STATES at a time as one stack
    (one `so3_stack` and one `Spectra` at tol, read by PPT and every
    criterion; no per-state cache entries or criterion calls), so a
    q-row may span two stacks and memory is bounded by STACK_STATES,
    whatever the resolution.  Each criterion gives one ResultStack per
    stack; a row's `results` is a RegionResults view of them, its
    CriterionResults are built only when read, and `region_csv_row`
    reads the stack's table of cells for its labels.  criteria may be
    any iterable; it is read once.  p, resolution, the labels and tol
    are checked by this call; an error of a criterion raises when its
    stack is evaluated: after every point of the earlier stacks, before
    that stack's first point is emitted.
    """
    p = _check_p(p)
    _check_resolution(resolution)
    criteria = list(criteria)  # an iterator is read once, here
    labels = [c.label for c in criteria]
    if len(set(labels)) != len(labels):
        raise InvalidParameters(f"duplicate criterion labels in {labels}")
    check_tol(tol)
    return _region_rows(p, criteria, resolution, tol)


def _region_rows(p: float, criteria: list[RegionCriterion], resolution: int,
                 tol: float) -> Iterator[ScanRow]:
    """The rows of `so3_region`, one stack of STACK_STATES points at a
    time.  The rows of a stack share its ResultStacks and its tables of
    CSV cells, one per labels tuple, each built on first read
    (`RegionResults.cells`; the empty tuple's is made here), so a row is
    a ScanRow and a RegionResults view: no criterion call, result or
    cell is made per point."""
    points = ((q, r, s) for q, row in so3_grid(p, resolution)
              for r, s in row)
    while chunk := list(islice(points, STACK_STATES)):
        qs, rs, _ = zip(*chunk)
        sp = Spectra(so3_stack(p, qs, rs), tol)
        ppt = PPT().verdicts(sp).violated
        stacks = {c.label: c.verdicts(sp) for c in criteria}
        tables = {(): [()] * len(chunk)}
        for k, (q, r, s) in enumerate(chunk):
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            yield tuple.__new__(ScanRow, (
                q, r, max(s, 0.0), not ppt[k],
                RegionResults(stacks, tables, k)))


def region_csv_header(labels: list[str]) -> str:
    cols = ["q", "r", "s", "ppt"]
    for label in labels:
        cols += [f"{label}_violated", f"{label}_margin"]
    return ",".join(cols)


def region_csv_row(row: ScanRow, labels: list[str]) -> str:
    """row's CSV line: q, r, s and each float to 9 significant digits
    (the text of `formats.format_float(x, 9)`), the PPT flag and each
    label's verdict as 0 or 1."""
    return ("%.9g,%.9g,%.9g,%d" + ",%d,%.9g" * len(labels)) % (
        row.q, row.r, row.s, row.ppt, *row.results.cells(labels))


# ---------------------------------------------------------------------------
# single-state checks and Choi dumps

def check_state(rho: DensityMatrix,
                criteria: list[RegionCriterion],
                include_ppt: bool = False,
                tol: float = DEFAULT_TOL) -> list[tuple[str, CriterionResult]]:
    """Evaluate criteria (PPT first, if include_ppt) on one state's
    `Spectra.of(rho, tol)`, with each criterion's `verdicts` as an
    `so3_region` row does; returns (label, result) pairs.  criteria may
    be any iterable; it is read once.  Raises InvalidParameters when
    there is nothing to evaluate."""
    criteria = [PPT(), *criteria] if include_ppt else list(criteria)
    if not criteria:
        raise InvalidParameters("nothing to evaluate: no criterion and no PPT")
    sp = Spectra.of(rho, tol)
    return [(c.label, c.verdicts(sp)[0]) for c in criteria]


def choi_dump(map_spec: str, part: str = "map"
              ) -> tuple[MatrixMap, bool, float]:
    """A catalog map (part "map") or one CP half ("1" or "2"), its CP
    verdict and its Choi matrix's smallest eigenvalue."""
    dec = parse_map_spec(map_spec)
    m = {"map": dec.map, "1": dec.lambda1, "2": dec.lambda2}.get(part)
    if m is None:
        raise InvalidParameters(f"part must be 'map', '1' or '2', not {part!r}")
    return m, maps.is_cp(m), linalg.min_eigenvalue(m.choi)
