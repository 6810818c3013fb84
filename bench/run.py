#!/usr/bin/env python3
"""Benchmark harness for sepcrit.

Run from the root of a source checkout:

    python3 bench/run.py --workload soundness --seed 1 --seconds 20 --trace 0

It imports sepcrit from the checkout's `src/`, sets up several times and
reports the median set-up time, then runs the workload's operations for
about `--seconds` seconds in five rounds over the same operations, checks
every output, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics, with times
scaled to a reference speed (see `Reference`); no tracing is installed.
With `--trace 1` the rounds alternate plain and traced, and the metrics
are the per-layer metrics of the traced rounds plus the tracing overhead.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import os

# Thread counts are fixed before numpy (and its BLAS) is loaded.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import OP_SPAN, Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 15
# Operations run (and checked) before timing starts, so that first-call
# costs inside numpy and the interpreter stay out of the timings.
WARMUP_OPS = 3
# The timed operations run this many times over, so that a traced run can
# alternate traced and plain rounds on the same operations.
ROUNDS = 5
# Times are scaled to the speed at which the Reference kernel takes
# exactly REFERENCE_KERNEL_S; the kernel is timed after each set-up and
# after any operation that ends REFERENCE_INTERVAL_S after its last run.
REFERENCE_KERNEL_S = 1.0e-3
REFERENCE_INTERVAL_S = 0.025

# soundness: the catalog of acceptance test 7 and its 22 (alpha, beta,
# kind) triples.  Kind I needs lambda2 = identity, so the per-pair count
# of evaluations is fixed by the catalog: 3x3 has 3 identity-lambda2 maps
# and one other (3*22 + 14), 4x4 has 4 and one (4*22 + 14).
SOUNDNESS_EVALS_PER_PAIR = 3 * 22 + 14 + 4 * 22 + 14

# so3_region: the Fig. 1/2 scan at p = 0.2 with the acceptance fixture's
# criteria, at resolution 60.
REGION_P = 0.2
REGION_RESOLUTION = 60
REGION_CSV_SHA256 = (
    "3fc5b4c3043903a683b7b7e8a3f5574ae15a2cf91828819b6581cf6c0a3b7b40")

# table1: the paper's rows, with the acceptance-1 bounds
# (lower, upper, upper_open); None means an empty range.
TABLE1_ROWS = {
    6.0: None,
    7.0: (3.191, 3.942, True),
    10.0: (3.016, 4.683, True),
    13.0: (3.002, 5.0, False),
    math.inf: (3.0, 5.0, False),
}
TABLE1_MAP = "phi_dk d=3 k=1"
TABLE1_TOL = 5e-3

# check_batch: seeded 3x3 files, even index separable, odd index a
# full-rank random density; evaluated with PPT, three maps and the
# entropic inequality at the CLI defaults alpha = beta = 1.
CHECK_FILES = 200
CHECK_MAPS = ("reduction d=3", "phi_dk d=3 k=1", "transposition d=3")
CHECK_REFERENCE_SEED = 0
CHECK_REFERENCE_FILES = 20
CHECK_REFERENCE_SHA256 = (
    "d92eb2a21b6f3878d666256e0074d8f9748f910c60de108c8d567d9247a5dd00")


# Layer times that read exactly zero on every run of a workload that never
# calls the layer: Kind IV's svd outside soundness, the scan layer on
# soundness, file parsing outside check_batch, CSV writing outside
# so3_region.  They are printed and recorded but left out of the result
# line, which holds the metrics that every workload moves.
REPORT_ONLY = {"linalg.svd_s", "scan.self_s", "formats.parse_s",
               "formats.write_s"}


class SetupError(Exception):
    """The checkout does not hold a usable sepcrit source tree."""


# ---------------------------------------------------------------------------
# the program under test

class Program:
    """sepcrit imported from the checkout, with the workloads' fixed objects.

    Functions are always looked up through the module objects at call
    time, so that the tracer's patches take effect.
    """

    def __init__(self):
        init = SRC / "sepcrit" / "__init__.py"
        if not init.is_file():
            raise SetupError(f"no sepcrit sources under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        sepcrit = importlib.import_module("sepcrit")
        if Path(sepcrit.__file__).resolve() != init.resolve():
            raise SetupError(f"imported sepcrit from {sepcrit.__file__}, "
                             f"not from {SRC}")
        for name in ("linalg", "maps", "states", "criteria", "scan",
                     "formats", "errors"):
            setattr(self, name, importlib.import_module(f"sepcrit.{name}"))
        maps, scan, Kind = self.maps, self.scan, self.criteria.Kind

        self.decs3 = [maps.reduction_decomposition(3),
                      maps.phi_dk_decomposition(3, 1),
                      maps.theta_decomposition(2, [1, 1, 1]),
                      maps.transposition_decomposition(3)]
        self.decs4 = [maps.reduction_decomposition(4),
                      maps.breuer_hall_decomposition(d=4),
                      maps.breuer_hall_tilde_decomposition(d=4),
                      maps.phi_dk_decomposition(4, 2),
                      maps.tau_u_decomposition(
                          maps.default_breuer_unitary(4))]
        self.triples = (
            [(a, b, Kind.I) for a in (1, 2, 5, 10) for b in (2, 3)]
            + [(a, b, Kind.II) for a in (1, 2, 5, 10) for b in (0.5, 1)]
            + [(a, b, Kind.IV) for a in (1, 2) for b in (1, 2)]
            + [(a, -0.5, Kind.III) for a in (1, 2)])

        bh, bht, red, tau = (self.decs4[1], self.decs4[2], self.decs4[0],
                             self.decs4[4])
        self.region_criteria = [
            scan.RegionCriterion("bh", bh, 3, 1, Kind.II),
            scan.RegionCriterion("tau", tau, 3, 1, Kind.II),
            scan.RegionCriterion("bht", bht, 3, 1, Kind.II),
            scan.RegionCriterion("red", red, 3, 1, Kind.II),
            scan.RegionCriterion("ent", None, 4),
        ]
        self.check_criteria = [
            scan.RegionCriterion(spec.split()[0], scan.parse_map_spec(spec),
                                 1.0, 1.0)
            for spec in CHECK_MAPS
        ] + [scan.RegionCriterion("entropic", None, 2.0)]
        self.states.so3_projectors()


def unload_program():
    for name in [n for n in sys.modules
                 if n == "sepcrit" or n.startswith("sepcrit.")]:
        del sys.modules[name]


def set_up(repeats, reference):
    """Import and build the program `repeats` times, timing the reference
    kernel after each; return the last Program and the median set-up
    time, raw and scaled to reference speed, in seconds."""
    raw, kernel_s = [], []
    for _ in range(repeats):
        unload_program()
        t0 = time.perf_counter()
        program = Program()
        raw.append(time.perf_counter() - t0)
        kernel_s.append(reference.time())
    scaled = scale(raw, kernel_s, range(1, repeats + 1))
    return program, statistics.median(raw), statistics.median(scaled)


class Reference:
    """A fixed kernel of the kinds of work sepcrit does, independent of
    sepcrit: a 16x16 eigendecomposition, block-wise assembly of a 9x9
    matrix from tiny numpy calls, float formatting and parsing, and
    interpreted arithmetic.

    Other tenants of a shared host slow this process down by up to 2x, in
    episodes lasting from seconds to minutes.  Timing this kernel next to
    each operation and scaling the operation's time by
    REFERENCE_KERNEL_S / kernel time reports it at the reference speed,
    so that such episodes cancel out.
    """

    def __init__(self):
        rng = np.random.default_rng(2007)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        self.a = g + g.conj().T
        self.block = np.arange(9, dtype=complex).reshape(3, 3)

    def _kernel(self):
        total = 0.0
        for _ in range(10):
            w, v = np.linalg.eigh(self.a)
            b = (v * np.sqrt(np.abs(w))) @ v.conj().T
            total += float(np.trace(b @ self.a).real)
            m = np.zeros((9, 9), dtype=complex)
            for i in range(3):
                for j in range(3):
                    m[3 * i:3 * i + 3, 3 * j:3 * j + 3] = (i - j) * np.einsum(
                        "ij,jk->ik", self.block, self.block)
            total += float(np.abs(m).sum())
            total += sum(float(f"{x:.17g}") for x in b[0].real)
            for k in range(50):
                total += k * 0.5
        return total

    def time(self):
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# workloads
#
# A workload turns an operation index into one timed call sequence into the
# program.  op(i) returns (seconds, work items, failed ops); the time
# covers only calls into sepcrit, the checks run after the clock stops.
# Operations are deterministic in i, so every round repeats the first one
# exactly.  `granule` is the number of operations that form a complete
# unit of output; rounds always end on a granule boundary.

class Soundness:
    """Seeded random separable state pairs against the whole catalog."""

    work_name, op_name = "evals", "pair"
    granule = 1

    def __init__(self, program, seed, gates):
        self.p, self.seed, self.gates = program, seed, gates

    def op(self, i):
        p = self.p
        singular = p.errors.SingularOperand
        rng = np.random.default_rng([self.seed, i])
        evaluated = violations = 0
        t0 = time.perf_counter()
        for dims, decs in (((3, 3), p.decs3), ((4, 4), p.decs4)):
            rho = p.states.random_separable(*dims, 4, rng)
            for dec in decs:
                for a, b, kind in p.triples:
                    if kind is p.criteria.Kind.I and not dec.lambda2_is_identity:
                        continue
                    try:
                        res = p.criteria.alpha_beta_inequality(
                            rho, dec, a, b, kind)
                    except singular:
                        continue
                    evaluated += 1
                    violations += res.violated
        elapsed = time.perf_counter() - t0
        ok_v = self.gates.check("soundness.zero_violations", violations == 0)
        ok_n = self.gates.check("soundness.eval_count",
                                evaluated == SOUNDNESS_EVALS_PER_PAIR)
        return elapsed, evaluated, int(not (ok_v and ok_n))


class Region:
    """The Fig. 1/2 SO(3) scan, written to CSV; one operation per point."""

    work_name, op_name = "points", "point"

    def __init__(self, program, seed, gates):
        self.p, self.gates = program, gates
        self.labels = [c.label for c in program.region_criteria]
        self.granule = program.scan.so3_grid_count(REGION_P,
                                                   REGION_RESOLUTION)
        self.path = OUT / "region.csv"
        self._rows = self._fh = None

    def _start_pass(self):
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.path, "w", newline="")
        self._digest = hashlib.sha256()
        self._count = self._hits = 0
        self._write(self.p.scan.region_csv_header(self.labels) + "\n")
        self._rows = self.p.scan.so3_region(
            REGION_P, self.p.region_criteria, REGION_RESOLUTION)

    def _write(self, text):
        self._fh.write(text)
        self._digest.update(text.encode())

    def _end_pass(self):
        self._fh.close()
        self._fh = None
        leftover = next(self._rows, None)
        self._rows = None
        g = self.gates
        ok = all([
            g.check("region.row_count", self._count == self.granule
                    and leftover is None),
            g.check("region.fig2_ppt_hit", self._hits >= 1),
            g.check("region.csv_digest",
                    self._digest.hexdigest() == REGION_CSV_SHA256),
        ])
        return 0 if ok else self.granule

    def op(self, i):
        if i % self.granule == 0:
            self._start_pass()
        t0 = time.perf_counter()
        row = next(self._rows)
        line = self.p.scan.region_csv_row(row, self.labels) + "\n"
        self._fh.write(line)
        elapsed = time.perf_counter() - t0
        self._digest.update(line.encode())
        self._count += 1
        res = row.results
        self._hits += bool(row.ppt and res["bh"].violated)
        sat = {k: not res[k].violated for k in ("tau", "bht", "red", "ent")}
        chain_ok = not ((sat["tau"] and not sat["bht"])
                        or (sat["bht"] and not sat["red"])
                        or (sat["red"] and not sat["ent"]))
        failed = int(not self.gates.check("region.inclusion_chain",
                                          chain_ok))
        if (i + 1) % self.granule == 0:
            failed += self._end_pass()
        return elapsed, 1, failed


class Table1:
    """Table 1 gamma ranges, cycling through the paper's alpha rows."""

    work_name, op_name = "rows", "row"
    granule = len(TABLE1_ROWS)

    def __init__(self, program, seed, gates):
        self.p, self.gates = program, gates
        self.alphas = list(TABLE1_ROWS)

    def op(self, i):
        alpha = self.alphas[i % len(self.alphas)]
        t0 = time.perf_counter()
        iv = self.p.scan.table1(alpha, 1.0, TABLE1_MAP, bisect_tol=1e-4)
        elapsed = time.perf_counter() - t0
        expected = TABLE1_ROWS[alpha]
        if expected is None:
            ok = iv.empty
        else:
            lo, hi, upper_open = expected
            ok = (not iv.empty and abs(iv.lower - lo) <= TABLE1_TOL
                  and iv.upper_open == upper_open
                  and (abs(iv.upper - hi) <= TABLE1_TOL if upper_open
                       else iv.upper == hi))
        return elapsed, 1, int(not self.gates.check("table1.bounds", ok))


class CheckBatch:
    """Seeded matrix files read back and checked one by one."""

    work_name, op_name = "states", "state"
    granule = 1

    def __init__(self, program, seed, gates):
        self.p, self.gates = program, gates
        self.files = self._write_files(OUT / "check_batch", seed,
                                       CHECK_FILES)
        self.verdicts = {}
        self._reference()

    def _write_files(self, directory, seed, n):
        directory.mkdir(parents=True, exist_ok=True)
        files = []
        for j in range(n):
            rng = np.random.default_rng([seed, j])
            if j % 2 == 0:
                matrix = self.p.states.random_separable(3, 3, 4, rng).matrix
            else:
                matrix = self.p.states.random_density(9, rng)
            path = directory / f"state_{j:04d}.mat"
            with open(path, "w") as fh:
                self.p.formats.write_matrix(fh, matrix, 3, 3)
            files.append((path, np.array(matrix), j % 2 == 0))
        return files

    def _evaluate(self, path):
        t0 = time.perf_counter()
        rho = self.p.formats.read_density_matrix(path)
        rows = self.p.scan.check_state(rho, self.p.check_criteria,
                                       include_ppt=True)
        return time.perf_counter() - t0, rho, rows

    @staticmethod
    def _verdict_line(rows):
        return ",".join(f"{label}={int(res.violated)}" for label, res in rows)

    def _reference(self):
        """Verdicts of a fixed-seed batch must match those recorded."""
        files = self._write_files(OUT / "check_reference",
                                  CHECK_REFERENCE_SEED, CHECK_REFERENCE_FILES)
        lines = [self._verdict_line(self._evaluate(path)[2])
                 for path, _, _ in files]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        self.reference_ok = self.gates.check(
            "check.reference_verdict_digest",
            digest == CHECK_REFERENCE_SHA256)
        self.reference_ops = len(files)

    def op(self, i):
        path, written, separable = self.files[i % len(self.files)]
        elapsed, rho, rows = self._evaluate(path)
        g = self.gates
        line = self._verdict_line(rows)
        ok = all([
            g.check("check.parse_bit_exact",
                    np.array_equal(rho.matrix, written)),
            g.check("check.separable_not_violated",
                    not (separable and any(r.violated for _, r in rows))),
            g.check("check.verdicts_repeat",
                    self.verdicts.setdefault(path, line) == line),
        ])
        return elapsed, 1, int(not ok)


WORKLOADS = {
    "soundness": ("soundness", Soundness),
    "so3_region": ("region", Region),
    "table1": ("table1", Table1),
    "check_batch": ("check", CheckBatch),
}


class Gates:
    """Counts passes and failures of each named correctness check."""

    def __init__(self):
        self.results = {}

    def check(self, name, ok):
        passed, failed = self.results.get(name, (0, 0))
        self.results[name] = (passed + bool(ok), failed + (not ok))
        return bool(ok)

    @property
    def all_passed(self):
        return all(f == 0 for _, f in self.results.values())


# ---------------------------------------------------------------------------
# measurement

class Round:
    """Timings of one pass over operations 0 .. n-1: raw seconds, and
    seconds scaled to the reference speed."""

    def __init__(self):
        self.op_s, self.scaled_s, self.work = [], [], []
        self.failed, self.error = 0, None


def run_round(workload, reference, target_s=None, n_ops=None, tracer=None):
    """Run exactly n_ops operations or, given target_s, whole granules
    until the elapsed time is nearest to target_s (at least one granule).

    The reference kernel runs after any operation that ends at least
    REFERENCE_INTERVAL_S after the previous kernel run, and at the end.
    """
    rnd = Round()
    kernel_s, group_end = [], []
    start = last = time.perf_counter()
    i = 0
    while True:
        if n_ops is not None:
            if i >= n_ops:
                break
        elif i > 0 and i % workload.granule == 0:
            elapsed = time.perf_counter() - start
            per_granule = elapsed / (i // workload.granule)
            if elapsed + per_granule / 2 >= target_s:
                break
        rec = None
        if tracer is not None:
            tracer.op = i
            rec = tracer.open(OP_SPAN)
        try:
            elapsed, work, failed = workload.op(i)
        except Exception:
            rnd.error = traceback.format_exc()
            rnd.failed += 1
            break
        finally:
            if rec is not None:
                tracer.close(rec)
        rnd.op_s.append(elapsed)
        rnd.work.append(work)
        rnd.failed += failed
        i += 1
        if time.perf_counter() - last >= REFERENCE_INTERVAL_S:
            kernel_s.append(reference.time())
            group_end.append(i)
            last = time.perf_counter()
    if i > (group_end[-1] if group_end else 0):
        kernel_s.append(reference.time())
        group_end.append(i)
    rnd.scaled_s = scale(rnd.op_s, kernel_s, group_end)
    return rnd


def scale(op_s, kernel_s, group_end):
    """Scale operation times to the reference speed.

    The operations up to group_end[g] are scaled by the median of the
    kernel times taken after the previous group, after this one and
    after the next, so that one disturbed kernel run does not skew them.
    """
    scaled, begin = [], 0
    for g, end in enumerate(group_end):
        k = statistics.median(kernel_s[max(g - 1, 0):g + 2])
        scaled += [t * REFERENCE_KERNEL_S / k for t in op_s[begin:end]]
        begin = end
    return scaled


def measure(workload, reference, seconds, tracer=None):
    """ROUNDS rounds over the same operations, about seconds/ROUNDS each.

    The first round fixes the number of operations.  With a tracer, the
    odd-numbered rounds run traced and the even-numbered ones plain.
    """
    rounds = [run_round(workload, reference, target_s=seconds / ROUNDS)]
    n_ops = len(rounds[0].op_s)
    for r in range(1, ROUNDS):
        if rounds[-1].error is not None:
            break
        traced = tracer if tracer is not None and r % 2 else None
        if traced:
            traced.patch()
        try:
            rounds.append(run_round(workload, reference, n_ops=n_ops,
                                    tracer=traced))
        finally:
            if traced:
                traced.unpatch()
    return rounds


def end_to_end(rounds, setup_s, field="scaled_s"):
    """Throughput over all rounds; latency percentiles over operations,
    each taken at its median time across the rounds."""
    times = np.array([getattr(r, field) for r in rounds])
    ms = np.median(times, axis=0) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "work_per_s": (sum(sum(r.work) for r in rounds) / times.sum(), "1/s"),
        "op_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(ms, 90)), "ms"),
    }


def per_layer(rounds, tracer):
    metrics = layer_metrics(tracer.spans)
    plain = np.mean([sum(r.scaled_s) for r in rounds[0::2]])
    traced = np.mean([sum(r.scaled_s) for r in rounds[1::2]])
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    return metrics


def report_names(prefix, workload):
    """Per-workload names of the end-to-end metrics, for the report."""
    return {
        "work_per_s": f"{prefix}.{workload.work_name}_per_s",
        "op_ms_p50": f"{prefix}.{workload.op_name}_ms_p50",
        "op_ms_p90": f"{prefix}.{workload.op_name}_ms_p90",
    }


# ---------------------------------------------------------------------------
# environment record

def git_sha():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_config():
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {f: deps[k].get(f) for f in
                    ("name", "version", "openblas configuration")}
                for k in ("blas", "lapack") if k in deps}
    except TypeError:  # numpy < 1.26 prints only
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        return buf.getvalue()


def environment():
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_config(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# entry point

def run(workload_name, seed, seconds, trace):
    """Run one benchmark; returns (result line, full record)."""
    prefix, cls = WORKLOADS[workload_name]
    reference = Reference()
    program, raw_setup_s, setup_s = set_up(SETUP_REPEATS, reference)
    OUT.mkdir(exist_ok=True)
    gates = Gates()
    workload = cls(program, seed, gates)
    attempted = failed = 0
    if isinstance(workload, CheckBatch):
        attempted += workload.reference_ops
        failed += 0 if workload.reference_ok else workload.reference_ops

    warmup = run_round(workload, reference, n_ops=WARMUP_OPS)
    rounds = [warmup]
    metrics = raw = {}
    if warmup.error is None:
        tracer = Tracer() if trace else None
        timed = measure(workload, reference, seconds, tracer)
        rounds += timed
        if all(r.error is None for r in timed):
            if tracer is None:
                metrics = end_to_end(timed, setup_s)
                raw = end_to_end(timed, raw_setup_s, "op_s")
            else:
                metrics = per_layer(timed, tracer)
                tracer.write(OUT / f"spans-{workload_name}-seed{seed}.csv")

    errors = [r.error for r in rounds if r.error]
    attempted += sum(len(r.op_s) + (r.error is not None) for r in rounds)
    failed += sum(r.failed for r in rounds)
    correct = failed == 0 and not errors and gates.all_passed
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items() if k not in REPORT_ONLY},
    }
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": environment(),
        "gates": {k: {"passed": p, "failed": f}
                  for k, (p, f) in gates.results.items()},
        "error_rate": failed / attempted if attempted else 1.0,
        "errors": errors,
        "names": report_names(prefix, workload),
        "ops_per_round": len(rounds[1].op_s) if len(rounds) > 1 else 0,
        "rounds": len(rounds) - 1,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in raw.items()},
        "result": line,
    }
    return line, record


def report(record):
    """Human-readable lines; the JSON result line is printed after them."""
    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, g in record["gates"].items():
        status = "pass" if g["failed"] == 0 else "FAIL"
        print(f"gate {name}: {status} ({g['passed']} passed, "
              f"{g['failed']} failed)")
    for err in record["errors"]:
        print(err, file=sys.stderr)
    print(f"samples {record['ops_per_round']} operations x "
          f"{record['rounds']} rounds")
    print(f"metric error_rate = {record['error_rate']:.6g} ratio")
    for name, m in record["metrics"].items():
        shown = record["names"].get(name, name)
        raw = record["raw_metrics"].get(name)
        extra = f" (raw {raw['value']:.6g})" if raw else ""
        print(f"metric {shown} = {m['value']:.6g} {m['unit']}{extra}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        line, record = run(args.workload, args.seed, args.seconds,
                           args.trace)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = OUT / (f"result-{args.workload}-seed{args.seed}"
                 f"-trace{args.trace}.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
