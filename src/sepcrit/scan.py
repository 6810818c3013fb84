"""Parameter scans: Table-1 style gamma ranges by bisection, SO(3)
parameter-space region grids, single-state checks, and Choi dumps."""

from __future__ import annotations

import math
from collections.abc import Mapping
from functools import lru_cache
from itertools import groupby, repeat
from operator import itemgetter
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
    bracket [x, y], heap-ordered: node k splits its span (x, y) =
    ends[2k:2k+2] at m = 0.5 * (x + y), node 2k+1 is the span (x, m)
    and node 2k+2 the span (m, y)."""
    ends, mids = [x, y], []
    for k in range(0, 2 ** (depth + 1) - 2, 2):
        x, y = ends[k], ends[k + 1]
        m = 0.5 * (x + y)
        mids.append(m)
        ends += x, m, m, y
    return mids


def table1(alpha: float, beta: float = 1.0,
           map_spec: str = "phi_dk d=3 k=1",
           kind: Kind | str | None = None,
           bisect_tol: float = 1e-4) -> GammaInterval:
    """Gamma range in [2, 5] where the (alpha, beta)-inequality derived
    from the given map is violated on the 3x3 test family.

    kind None is routed by beta (`route_kind`), and a str is a Kind
    name.  alpha = inf is the limit of the same inequality, for every
    beta and kind.
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
    # checked here too: _grid_spectra's cache hashes map_spec before
    # parse_map_spec reads it
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
    # each bracket is [non-violating gamma, violating gamma], in Python floats
    brackets = [[float(grid[i0 - 1]), float(grid[i0])]] if lower_open else []
    brackets += [[float(grid[i1 + 1]), float(grid[i1])]] if upper_open else []
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
    ends = iter([np.float64(0.5 * (b[0] + b[1])) for b in brackets])
    lower = next(ends) if lower_open else 2.0
    upper = next(ends) if upper_open else 5.0
    return GammaInterval(lower, upper, lower_open, upper_open)


# ---------------------------------------------------------------------------
# SO(3) region scans

class RegionResults(Mapping):
    """A region row's results, read-only: label -> CriterionResult,
    built on access from the ResultStack of each criterion on the row's
    stack (`so3_region`).  Its keys are the criterion labels, in order.

    The rows of one stack share its (ResultStacks, head, tables): head
    holds the columns of q's and r's text, s and the PPT flag; tables
    one table of CSV fields per labels tuple, built on the first
    `csv_fields` call with those labels by one zip of the head and the
    stacks' lists.  Row k reads line k of it."""

    __slots__ = ("_stack", "_k")

    def __init__(self, stack: tuple, k: int):
        self._stack, self._k = stack, k

    def __getitem__(self, label: str) -> CriterionResult:
        return self._stack[0][label][self._k]

    def __iter__(self):
        return iter(self._stack[0])

    def __len__(self) -> int:
        return len(self._stack[0])

    def csv_fields(self, labels: list[str]) -> tuple:
        """The text of q and of r, s, the PPT flag, then violated, margin
        of each label in turn (an unknown label raises KeyError)."""
        stacks, head, tables = self._stack
        key = tuple(labels)
        table = tables.get(key)
        if table is None:
            table = tables[key] = list(zip(*head, *[
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
    ascending, where s = 1 - p - q - r >= -1e-12: the points of
    `_grid`, the one grid definition, as so3_region and so3_grid_count
    read it, so memory holds one block and one stack of it.
    """
    p = _check_grid(p, resolution)
    points = (point for i, j in _grid(p, resolution) for point in zip(
        (i / resolution).tolist(), (j / resolution).tolist(),
        (1.0 - p - i / resolution - j / resolution).tolist()))
    for q, row in groupby(points, itemgetter(0)):
        yield q, [(r, s) for _, r, s in row]


def _check_grid(p, resolution) -> float:
    """p as a float, if it is a real number in [0, 1] (a float32 p is
    then computed with in float64, as `so3_stack` computes), and a
    resolution that is an integer >= 2, else InvalidParameters."""
    if not (linalg.is_real(p) and 0.0 <= p <= 1.0):
        raise InvalidParameters(f"p={p!r} outside [0,1]")
    if not (linalg.is_dimension(resolution) and resolution >= 2):
        raise InvalidParameters(
            f"resolution must be an integer >= 2, got {resolution!r}")
    return float(p)


def so3_grid_count(p: float, resolution: int) -> int:
    """Number of admissible (q, r) points of `so3_grid`."""
    p = _check_grid(p, resolution)
    return sum(i.size for i, _ in _grid(p, resolution))


# Grid points that so3_region evaluates as one stack (the last stack of
# a scan holds the rest).  The arrays of one stack bound a scan's memory
# (5 MiB with five criteria); from 128 to 512 the time per point is
# flat, and at 64 it is about 1.5x.
STACK_STATES = 256


def _grid(p: float, resolution: int) -> Iterator[np.ndarray]:
    """(i, j) of the admissible points (q, r) = (i, j) / resolution at p,
    where 1 - p - q - r >= -1e-12, row-major, as (2, k) arrays of
    STACK_STATES points (the last holds the rest).  They are built by
    array arithmetic, one block of whole q-rows of about STACK_STATES
    points at a time (one row, where a row is longer), so at most one
    block and one stack are held: no array spans the grid."""
    n = resolution + 1
    rows = -(-STACK_STATES // n)
    r = np.arange(n) / resolution
    held = np.empty((2, 0), dtype=np.intp)
    for i in range(0, n, rows):
        q = np.arange(i, min(i + rows, n)) / resolution
        block = np.array(np.nonzero(1.0 - p - q[:, None] - r >= -1e-12))
        if not block.size:  # s falls as q rises: no later row has a point
            break
        block[0] += i
        held = np.concatenate([held, block], 1)
        while held.shape[1] >= STACK_STATES:
            yield held[:, :STACK_STATES]
            held = held[:, STACK_STATES:]
    if held.size:
        yield held


def so3_region(p: float, criteria: list[RegionCriterion], resolution: int,
               tol: float = DEFAULT_TOL) -> Iterator[ScanRow]:
    """Scan the admissible (q, r) simplex at fixed p on a uniform grid.

    Emits rows in row-major (q outer, r inner) order; each row carries
    the PPT flag and every criterion's verdict.  The grid's points
    (`_grid`) are built, validated and evaluated STACK_STATES at a time
    as one stack (one `so3_stack` and one `Spectra` at tol, read by PPT
    and every criterion; no per-state cache entries or criterion calls),
    so a q-row may span two stacks and memory holds one block of the
    grid and one stack, whatever the resolution.  Each criterion gives
    one ResultStack per stack; a row's `results` is a RegionResults view
    of them, its CriterionResults are built only when read, and
    `region_csv_row` reads the stack's table of CSV fields for its
    labels.  criteria may be any iterable; it is read once.  p,
    resolution, the criteria (`_check_criteria`), their labels and tol
    are checked by this call; an error of a criterion raises when its
    stack is evaluated: after every point of the earlier stacks, before
    that stack's first point is emitted.
    """
    p = _check_grid(p, resolution)
    criteria = _check_criteria(criteria)  # an iterator is read once, here
    labels = [c.label for c in criteria]
    if len(set(labels)) != len(labels):
        raise InvalidParameters(f"duplicate criterion labels in {labels}")
    check_tol(tol)
    return _region_rows(p, criteria, resolution, tol)


def _check_criteria(criteria) -> list:
    """criteria, read once, as a list: each entry a RegionCriterion or a
    PPT with a str label, else InvalidParameters naming its index."""
    criteria = list(criteria)
    for k, c in enumerate(criteria):
        if not isinstance(c, (RegionCriterion, PPT)):
            raise InvalidParameters(f"criteria[{k}] is a {type(c).__name__}, "
                                    "not a RegionCriterion or PPT")
        if not isinstance(c.label, str):
            raise InvalidParameters(
                f"criteria[{k}] has the label {c.label!r}, not a str")
    return criteria


def _region_rows(p: float, criteria: list[RegionCriterion], resolution: int,
                 tol: float) -> Iterator[ScanRow]:
    """The rows of `so3_region`, one stack of `_grid` at a time (memory
    holds one block of the grid and one stack): its q and r arrays go to
    `so3_stack` and its map entries are one `Spectra.fill`, as in
    `check_state`.  Each grid value's text, q's and r's alike, is
    formatted once per scan.  A row is a ScanRow and a RegionResults
    view of its stack: no criterion call, result or cell per point."""
    text = np.array(["%.9g" % (k / resolution)
                     for k in range(resolution + 1)], dtype=object)
    ms = [m for c in criteria for m in c.maps]
    for i, j in _grid(p, resolution):
        q, r = i / resolution, j / resolution
        sp = Spectra(so3_stack(p, q, r), tol)
        sp.fill(ms)
        ok = [not v for v in PPT().verdicts(sp).violated]
        s = np.maximum(1.0 - p - q - r, 0.0).tolist()
        stack = ({c.label: c.verdicts(sp) for c in criteria},
                 (text[i].tolist(), text[j].tolist(), s, ok), {})
        views = map(RegionResults, repeat(stack), range(len(ok)))
        for row in zip(q.tolist(), r.tolist(), s, ok, views):
            # tuple.__new__ skips the NamedTuple's Python-level __new__
            yield tuple.__new__(ScanRow, row)


def region_csv_header(labels: list[str]) -> str:
    cols = ["q", "r", "s", "ppt"]
    for label in labels:
        cols += [f"{label}_violated", f"{label}_margin"]
    return ",".join(cols)


def region_csv_row(row: ScanRow, labels: list[str]) -> str:
    """The CSV line of a row of `so3_region`: q, r, s and each margin to
    9 significant digits (the text of `formats.format_float(x, 9)`; q's
    and r's formatted once per scan), the PPT flag and each label's
    verdict as 0 or 1."""
    return ("%s,%s,%.9g,%d" + ",%d,%.9g" * len(labels)) % (
        row.results.csv_fields(labels))


# ---------------------------------------------------------------------------
# single-state checks and Choi dumps

def check_state(rho: DensityMatrix,
                criteria: list[RegionCriterion],
                include_ppt: bool = False,
                tol: float = DEFAULT_TOL) -> list[tuple[str, CriterionResult]]:
    """Evaluate criteria (PPT first, if include_ppt) on one state's
    `Spectra.of(rho, tol)`, with each criterion's `verdicts` as an
    `so3_region` row does; returns (label, result) pairs.  criteria may
    be any iterable; it is read once.  Raises InvalidParameters for an
    entry that is not a criterion (`_check_criteria`) and when there is
    nothing to evaluate.

    The map entries of every criterion (`RegionCriterion.maps`) are
    built first, in one `Spectra.fill`, which raises nothing: each
    criterion's errors come in its own turn, as without it."""
    criteria = ([PPT()] if include_ppt else []) + _check_criteria(criteria)
    if not criteria:
        raise InvalidParameters("nothing to evaluate: no criterion and no PPT")
    sp = Spectra.of(rho, tol)
    sp.fill([m for c in criteria for m in c.maps])
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
