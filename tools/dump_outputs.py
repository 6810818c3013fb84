#!/usr/bin/env python3
"""Print sepcrit's outputs on the benchmark's inputs, one line each.

    python3 tools/dump_outputs.py SRC_DIR [--small] > dump.txt

SRC_DIR is the `src` directory of a checkout; sepcrit is imported from
it.  Floats are printed as `float.hex`, so two dumps agree only where
every bit does, and an error is printed as its class name and message.
`diff` of the dumps of two checkouts is then their drift.  `--small`
runs each section on reduced sizes.

Sections, each line starting with its name:
- `sound`: the soundness recipe of `bench/run.py` (seeded separable
  3x3 and 4x4 states, the nine-map catalog, the 22 (alpha, beta, kind)
  triples), seeds 1-3 x 30 pairs, with kind I run for every map;
- `kindI`: kind I with tau_u's lambda2 on SO(3) states at p = 0.2, where
  it commutes, on a grid of resolution 20;
- `rand`: a SHA-256 of each of those `random_separable` matrices;
- `region`: so3_region scans with the benchmark's five criteria at
  (p, resolution) (0.2, 200), (0, 200), (1, 200), (0.2, 2) and
  (0.3, 300), every result of every point, and each CSV's SHA-256;
- `table1`: the Table 1 rows at alpha 6, 7, 10, 13 and inf;
- `check`: `check_state` rows of 100 seeded 3x3 matrix files (PPT,
  three maps, entropic), written and read back as the benchmark does,
  then of the three maps at (alpha, beta, kind) (2, 0.5, II),
  (2, 2, IV), (1, 2, I), (inf, 1, II) and alpha = inf at each of the
  first three's (beta, kind), where X's eigensolve, its
  overlap and its commutator are read (transposition's kind I rows are
  its CommutativityViolated error), with SHA-256s of each map entry's
  arrays; the same for 20 seeded 4x4 files with the four d = 4 maps;
- `family`: the paper families where X's spectrum is an eigensolve of
  the family's matrix, read against its gathered eigenvectors: a res-20
  SO(3) scan at p = 0.2 with the four d = 4 maps at (alpha, beta, kind)
  (2, 0.5, II), (2, 2, IV) and (1, 2, I), and a 31-point Horodecki
  stack with phi_dk d=3 k=1 at (2, 0.5, II) and (2, 2, IV); both also
  at alpha = inf for each of those three (beta, kind);
- `one`: SO(3) and Horodecki states one at a time through
  `structural_criterion`, `limit_witness`, `ppt_check` and
  `entropic_inequality(..., "B")`, with SHA-256s of each state's matrix
  and eigenvectors.

Uses only the standard library and numpy.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

CHECK_MAPS = ("reduction d=3", "phi_dk d=3 k=1", "transposition d=3")
SO3_MAPS = ("reduction d=4", "breuer_hall d=4", "breuer_hall_tilde d=4",
            "tau_u d=4")
HORODECKI_MAPS = ("phi_dk d=3 k=1", "reduction d=3", "theta a=2 c=2,1,1")
FAMILY_TRIPLES = ((2.0, 0.5, "II"), (2.0, 2.0, "IV"), (1.0, 2.0, "I"))
# alpha = inf at each (beta, kind) of FAMILY_TRIPLES
LIMIT_TRIPLES = tuple((math.inf, b, kind) for _, b, kind in FAMILY_TRIPLES)
CHECK_TRIPLES = FAMILY_TRIPLES + ((math.inf, 1.0, "II"),) + LIMIT_TRIPLES
TABLE1_ALPHAS = (6.0, 7.0, 10.0, 13.0, math.inf)
# (p, resolution) of each region scan: the benchmark's, the simplex's
# corners p = 0 and p = 1, the smallest grid, and one whose q-rows are
# longer than a stack (scan.STACK_STATES), so a stack ends inside a row
REGION_SCANS = ((0.2, 200), (0.0, 200), (1.0, 200), (0.2, 2), (0.3, 300))


def text(x) -> str:
    """A float as float.hex, None and bools as themselves."""
    if x is None or isinstance(x, (bool, np.bool_)):
        return str(x)
    return float(x).hex()


def result_text(res) -> str:
    return " ".join([text(res.lhs), text(res.rhs), text(res.margin),
                     str(res.violated), res.kind.name,
                     text(res.commutator_norm)])


def outcome(call, show=result_text) -> str:
    """call()'s result as `show` prints it, or the error it raised."""
    try:
        return show(call())
    except Exception as exc:  # the error is the output
        return f"{type(exc).__name__}: {exc}"


def digest(matrix) -> str:
    return hashlib.sha256(np.ascontiguousarray(matrix).tobytes()).hexdigest()


def load(src: Path) -> SimpleNamespace:
    """sepcrit's modules, imported from src."""
    init = src / "sepcrit" / "__init__.py"
    if not init.is_file():
        sys.exit(f"no sepcrit sources under {src}")
    sys.path.insert(0, str(src))
    sepcrit = importlib.import_module("sepcrit")
    if Path(sepcrit.__file__).resolve() != init.resolve():
        sys.exit(f"imported sepcrit from {sepcrit.__file__}, not from {src}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"sepcrit.{name}")
        for name in ("criteria", "formats", "maps", "scan", "states")})


def soundness(sc, seeds, pairs):
    maps, Kind = sc.maps, sc.criteria.Kind
    decs = {(3, 3): [maps.reduction_decomposition(3),
                     maps.phi_dk_decomposition(3, 1),
                     maps.theta_decomposition(2, [1, 1, 1]),
                     maps.transposition_decomposition(3)],
            (4, 4): [maps.reduction_decomposition(4),
                     maps.breuer_hall_decomposition(d=4),
                     maps.breuer_hall_tilde_decomposition(d=4),
                     maps.phi_dk_decomposition(4, 2),
                     maps.tau_u_decomposition(maps.default_breuer_unitary(4))]}
    triples = ([(a, b, Kind.I) for a in (1, 2, 5, 10) for b in (2, 3)]
               + [(a, b, Kind.II) for a in (1, 2, 5, 10) for b in (0.5, 1)]
               + [(a, b, Kind.IV) for a in (1, 2) for b in (1, 2)]
               + [(a, -0.5, Kind.III) for a in (1, 2)])
    for seed in seeds:
        for i in range(pairs):
            rng = np.random.default_rng([seed, i])
            for dims, dec_list in decs.items():
                rho = sc.states.random_separable(*dims, 4, rng)
                print(f"rand {seed} {i} {dims[0]}x{dims[1]} "
                      f"{digest(rho.matrix)}")
                for dec in dec_list:
                    for a, b, kind in triples:
                        print(f"sound {seed} {i} {dec.name} {a} {b} "
                              f"{kind.name} " + outcome(
                                  lambda: sc.criteria.alpha_beta_inequality(
                                      rho, dec, a, b, kind)))


def kind_one(sc, resolution):
    """Kind I with a map lambda2 where it commutes: tau_u on SO(3)
    states, one state at a time."""
    dec = sc.maps.parse_map_spec("tau_u d=4")
    for q in range(resolution + 1):
        for r in range(resolution + 1 - q):
            rho = sc.states.so3_state(0.2, 0.8 * q / resolution,
                                      0.8 * r / resolution)
            for a in (1, 2, 5, 10):
                for b in (1, 2, 3):
                    print(f"kindI {q} {r} {a} {b} " + outcome(
                        lambda: sc.criteria.alpha_beta_inequality(
                            rho, dec, a, b, "I")))


def region(sc, scans):
    """so3_region with the benchmark's five criteria at each (p,
    resolution) of scans: every result of every point, then its CSV's
    SHA-256."""
    maps, scan, Kind = sc.maps, sc.scan, sc.criteria.Kind
    crit = [scan.RegionCriterion("bh", maps.breuer_hall_decomposition(d=4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("tau", maps.tau_u_decomposition(
                maps.default_breuer_unitary(4)), 3, 1, Kind.II),
            scan.RegionCriterion("bht", maps.breuer_hall_tilde_decomposition(
                d=4), 3, 1, Kind.II),
            scan.RegionCriterion("red", maps.reduction_decomposition(4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("ent", None, 4)]
    labels = [c.label for c in crit]
    for p, resolution in scans:
        head = f"region {p} {resolution}"
        csv = hashlib.sha256(
            (scan.region_csv_header(labels) + "\n").encode())
        for row in scan.so3_region(p, crit, resolution):
            csv.update((scan.region_csv_row(row, labels) + "\n").encode())
            print(head, *map(text, row[:4]), " | ".join(
                result_text(row.results[label]) for label in labels))
        print(head, "csv", csv.hexdigest())


def table1(sc, alphas):
    for alpha in alphas:
        try:
            iv = sc.scan.table1(alpha, 1.0, "phi_dk d=3 k=1", bisect_tol=1e-4)
            out = " ".join(map(text, iv))
        except Exception as exc:  # the error is the output
            out = f"{type(exc).__name__}: {exc}"
        print(f"table1 {alpha} {out}")


def check_rows(sc, rho, crit, include_ppt=False):
    """(label, printed result) of each criterion on rho through
    `check_state`: one call for all of them, which builds every map
    entry in one stacked pass; where that call raises, one call per
    criterion on the entries it built, so that the error is the output
    of the criterion that raised it."""
    try:
        return [(label, result_text(res)) for label, res in
                sc.scan.check_state(rho, crit, include_ppt=include_ppt)]
    except Exception:  # the error is the output
        return [(c.label, outcome(lambda c=c: sc.scan.check_state(
            rho, [c])[0][1])) for c in crit]


def check_file(sc, tmp, head, dim, specs, seed):
    """One seeded dim x dim matrix file (separable for an even seed[1],
    else a full-rank random density), written and read back as the
    benchmark does, checked at the CLI defaults (PPT, the maps of specs
    and entropic) and then with the maps alone at each CHECK_TRIPLES
    (alpha, beta, kind), and the SHA-256s of the map entries those
    checks read: X, its weights, its eigensolve and overlap, and its
    commutator norm."""
    rng = np.random.default_rng(seed)
    if seed[1] % 2 == 0:
        matrix = sc.states.random_separable(dim, dim, 4, rng).matrix
    else:
        matrix = sc.states.random_density(dim * dim, rng)
    path = Path(tmp) / f"state_{dim}_{seed[1]:04d}.mat"
    with open(path, "w") as fh:
        sc.formats.write_matrix(fh, matrix, dim, dim)
    rho = sc.formats.read_density_matrix(path)
    decs = [(spec.split()[0], sc.scan.parse_map_spec(spec)) for spec in specs]
    crit = [sc.scan.RegionCriterion(label, dec, 1.0, 1.0)
            for label, dec in decs]
    crit.append(sc.scan.RegionCriterion("entropic", None, 2.0))
    for label, out in check_rows(sc, rho, crit, include_ppt=True):
        print(f"check {head} {label} {out}")
    for a, b, kind in CHECK_TRIPLES:
        crit = [sc.scan.RegionCriterion(label, dec, a, b, kind)
                for label, dec in decs]
        for label, out in check_rows(sc, rho, crit):
            print(f"check {head} {label} {a} {b} {kind} {out}")
    # the map entries those rows read, bit for bit
    sp = sc.criteria.Spectra.of(rho)
    for label, dec in decs:
        halves = [("1", dec.lambda1), ("map", dec.map)]
        if not dec.lambda2_is_identity:
            halves.insert(1, ("2", dec.lambda2))
        for half, m in halves:
            entry = sp.map(m)
            print(f"check {head} {label} entry {half}", *map(digest, (
                entry.X, entry.weights, *entry.eig, entry.overlap)),
                text(entry.commutator))


def check(sc, files, files4):
    with tempfile.TemporaryDirectory() as tmp:
        for j in range(files):
            check_file(sc, tmp, j, 3, CHECK_MAPS, [0, j])
        for j in range(files4):
            check_file(sc, tmp, f"4x4 {j}", 4, SO3_MAPS, [4, j])


def family(sc, resolution, points):
    """Each criterion on its own scan or stack, so that one that raises
    (kind I where a state does not commute) leaves the others whole."""
    scan = sc.scan
    for spec in SO3_MAPS:
        dec = scan.parse_map_spec(spec)
        for a, b, kind in FAMILY_TRIPLES + LIMIT_TRIPLES:
            head = f"family so3 {spec.split()[0]} {a} {b} {kind}"
            crit = scan.RegionCriterion("x", dec, a, b, kind)
            try:
                for row in scan.so3_region(0.2, [crit], resolution):
                    print(head, *map(text, row[:4]),
                          result_text(row.results["x"]))
            except Exception as exc:  # the error is the output
                print(head, f"{type(exc).__name__}: {exc}")
    dec = scan.parse_map_spec("phi_dk d=3 k=1")
    gammas = np.linspace(2.0, 5.0, points)
    sp = sc.criteria.Spectra(sc.states.horodecki_stack(gammas))
    for a, b, kind in FAMILY_TRIPLES[:2] + LIMIT_TRIPLES:
        head = f"family horodecki {a} {b} {kind}"
        try:
            results = scan.RegionCriterion("x", dec, a, b, kind).verdicts(sp)
        except Exception as exc:  # the error is the output
            print(head, f"{type(exc).__name__}: {exc}")
            continue
        for gamma, res in zip(gammas, results):
            print(head, text(gamma), result_text(res))


def one_state(sc, resolution, points):
    criteria, scan = sc.criteria, sc.scan
    so3 = [(0.8 * q / resolution, 0.8 * r / resolution)
           for q in range(resolution + 1) for r in range(resolution + 1 - q)]
    cases = [(f"so3 {text(q)} {text(r)}",
              lambda q=q, r=r: sc.states.so3_state(0.2, q, r), SO3_MAPS)
             for q, r in so3]
    cases += [(f"horodecki {text(g)}",
               lambda g=g: sc.states.horodecki_state(g), HORODECKI_MAPS)
              for g in np.linspace(2.0, 5.0, points)]
    parsed = {spec: scan.parse_map_spec(spec).map
              for spec in SO3_MAPS + HORODECKI_MAPS}
    for head, make, specs in cases:
        rho = make()
        print(f"one {head} ppt",
              outcome(lambda: criteria.ppt_check(rho), text))
        print(f"one {head} entropicB", outcome(
            lambda: criteria.entropic_inequality(rho, 2.0, "B")))
        for spec in specs:
            m, name = parsed[spec], spec.split()[0]
            print(f"one {head} structural {name}", outcome(
                lambda: criteria.structural_criterion(rho, m), text))
            print(f"one {head} limit {name}", outcome(
                lambda: criteria.limit_witness(rho, m), text))
        print(f"one {head} matrix {digest(rho.matrix)} eigenvectors "
              f"{digest(rho.eig.eigenvectors)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", type=Path, help="the src directory of a checkout")
    ap.add_argument("--small", action="store_true",
                    help="run each section on reduced sizes")
    args = ap.parse_args(argv)
    sc = load(args.src.resolve())
    if args.small:
        soundness(sc, seeds=(1,), pairs=2)
        kind_one(sc, resolution=2)
        region(sc, [(0.2, 12), (0.0, 12), (1.0, 12), (0.2, 2), (0.3, 40)])
        table1(sc, alphas=(7.0, math.inf))
        check(sc, files=4, files4=2)
        family(sc, resolution=4, points=7)
        one_state(sc, resolution=2, points=4)
    else:
        soundness(sc, seeds=(1, 2, 3), pairs=30)
        kind_one(sc, resolution=20)
        region(sc, REGION_SCANS)
        table1(sc, alphas=TABLE1_ALPHAS)
        check(sc, files=100, files4=20)
        family(sc, resolution=20, points=31)
        one_state(sc, resolution=20, points=31)


if __name__ == "__main__":
    main()
