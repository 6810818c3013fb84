"""Span tracing of sepcrit from outside the package.

The tracer wraps public functions of the package under every name they
are called by (a function imported into another module with
`from .x import f` is patched there too), records one span per call and
keeps the spans in memory.  Layer metrics are computed from the spans
afterwards: a span's self time is its duration minus the durations of
its direct children, so the self times of all spans partition the
traced time without double counting.
"""

from __future__ import annotations

import csv
import functools
import os
import sys
import time
from collections import defaultdict

# (module, attribute, span name, kind).  kind "gen" wraps each next() of
# a generator function; "method" patches a class attribute.
TARGETS = [
    ("linalg", "hermitian_eig", "linalg.eigh", "func"),
    ("linalg", "matrix_power_psd", "linalg.power", "func"),
    ("linalg", "psd_power", "linalg.psd_power", "func"),
    ("linalg", "sorted_singular_values", "linalg.svd", "func"),
    ("maps", "extend_apply", "maps.extend_apply", "func"),
    ("states", "random_separable", "states.random_separable", "func"),
    ("states", "so3_state", "states.so3_state", "func"),
    ("states", "horodecki_state", "states.horodecki_state", "func"),
    ("states", "DensityMatrix.__post_init__", "states.validate", "method"),
    ("criteria", "alpha_beta_inequality", "criteria.alpha_beta", "func"),
    ("criteria", "entropic_inequality", "criteria.entropic", "func"),
    ("criteria", "ppt_check", "criteria.ppt", "func"),
    ("criteria", "limit_witness", "criteria.limit", "func"),
    ("scan", "table1", "scan.table1", "func"),
    ("scan", "so3_region", "scan.so3_region", "gen"),
    ("scan", "check_state", "scan.check_state", "func"),
    ("scan", "RegionCriterion.evaluate", "scan.evaluate", "method"),
    ("scan", "region_csv_row", "scan.region_csv_row", "func"),
    ("scan", "parse_map_spec", "scan.parse_map_spec", "func"),
    ("formats", "read_density_matrix", "formats.read", "func"),
    ("formats", "format_float", "formats.format_float", "func"),
]

OP_SPAN = "bench.op"

# PPT counts as violated below -tol, the default tolerance check_state
# applies; the limit witness counts as violated below 0, as table1 reads
# it.
_TOL = 1e-9

# Extra value stored on a span, computed from the call's positional
# arguments and result after the span has closed.
_INFO = {
    "criteria.alpha_beta": lambda args, res: res.violated,
    "criteria.entropic": lambda args, res: res.violated,
    "criteria.ppt": lambda args, res: res < -_TOL,
    "criteria.limit": lambda args, res: res < 0,
    "formats.read": lambda args, res: os.path.getsize(args[0]),
    "scan.region_csv_row": lambda args, res: len(res.encode()) + 1,
}


class Tracer:
    """Patches the package, records spans, and restores it on `unpatch`."""

    def __init__(self):
        # Each span: [name, start, end, parent index, op id, info].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.op = -1

    # -- span recording -------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(len(self.spans) - 1)
        rec = self.spans[-1]
        rec[1] = time.perf_counter()
        return rec

    def close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        info = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(rec)
                rec[5] = type(exc).__name__
                raise
            self.close(rec)
            if info is not None:
                rec[5] = info(args, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def rows():
                while True:
                    rec = self.open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self.close(rec)
                        rec[5] = "end"
                        return
                    except BaseException as exc:
                        self.close(rec)
                        rec[5] = type(exc).__name__
                        raise
                    self.close(rec)
                    yield item

            return rows()

        return traced

    # -- patching -------------------------------------------------------

    def patch(self, package="sepcrit"):
        """Wrap every target wherever the package holds a reference to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package
                                         or n.startswith(package + "."))]
        for modname, attr, name, kind in TARGETS:
            home = sys.modules[f"{package}.{modname}"]
            if kind == "method":
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(name, original), original)
                continue
            original = getattr(home, attr)
            wrapper = (self._wrap_generator if kind == "gen"
                       else self._wrap)(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, original)

    def _set(self, owner, key, wrapper, original):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def unpatch(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- output ---------------------------------------------------------

    def write(self, path):
        """Write the spans as CSV: name,start,end,parent,op,info."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start", "end", "parent", "op", "info"])
            for name, start, end, parent, op, info in self.spans:
                out.writerow([name, repr(start), repr(end), parent, op,
                              "" if info is None else info])


def self_times(spans):
    """Self time of each span: duration minus its direct children."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]


def layer_metrics(spans):
    """Per-layer counts, self times and ratios from traced operations.

    Returns {metric name: (value, unit)}.
    """
    selft = self_times(spans)
    count = defaultdict(int)
    self_s = defaultdict(float)
    layer_s = defaultdict(float)
    for rec, st in zip(spans, selft):
        count[rec[0]] += 1
        self_s[rec[0]] += st
        layer_s[rec[0].split(".")[0]] += st

    n_ops = max(count[OP_SPAN], 1)
    power_with_eig = sum(1 for rec in spans
                         if rec[0] == "linalg.psd_power"
                         and rec[3] >= 0 and spans[rec[3]][0] == "linalg.power")
    crit = [rec for rec in spans if rec[0].startswith("criteria.")]
    skips = sum(1 for rec in crit if rec[5] == "SingularOperand")
    violated = sum(1 for rec in crit if rec[5] is True)
    predicate = sum(1 for rec in spans
                    if rec[0] == "states.horodecki_state" and rec[3] >= 0
                    and spans[rec[3]][0] == "scan.table1")
    rows = (count["scan.table1"] + count["scan.check_state"]
            + sum(1 for rec in spans
                  if rec[0] == "scan.so3_region" and rec[5] != "end"))
    parse_bytes = sum(rec[5] for rec in spans
                      if rec[0] == "formats.read" and isinstance(rec[5], int))
    # CSV rows (with their newline) produced for output.
    bytes_out = sum(rec[5] for rec in spans
                    if rec[0] == "scan.region_csv_row"
                    and isinstance(rec[5], int))

    def frac(num, den):
        return num / den if den else 0.0

    return {
        "linalg.eigh_calls": (count["linalg.eigh"], "count"),
        "linalg.eigh_s": (self_s["linalg.eigh"], "s"),
        "linalg.eigh_per_op": (count["linalg.eigh"] / n_ops, "count/op"),
        "linalg.power_calls": (count["linalg.power"], "count"),
        "linalg.power_s": (self_s["linalg.power"]
                           + self_s["linalg.psd_power"], "s"),
        "linalg.power_int_frac": (
            frac(count["linalg.power"] - power_with_eig,
                 count["linalg.power"]), "ratio"),
        "linalg.svd_calls": (count["linalg.svd"], "count"),
        "linalg.svd_s": (self_s["linalg.svd"], "s"),
        "maps.extend_apply_calls": (count["maps.extend_apply"], "count"),
        "maps.extend_apply_s": (self_s["maps.extend_apply"], "s"),
        "maps.extend_apply_per_op": (count["maps.extend_apply"] / n_ops,
                                     "count/op"),
        "states.construct_calls": (count["states.validate"], "count"),
        "states.construct_s": (layer_s["states"], "s"),
        "criteria.evals": (len(crit), "count"),
        "criteria.self_s": (layer_s["criteria"], "s"),
        "criteria.skip_frac": (frac(skips, len(crit)), "ratio"),
        "criteria.violated_frac": (frac(violated, len(crit)), "ratio"),
        "scan.predicate_calls": (predicate, "count"),
        "scan.self_s": (layer_s["scan"], "s"),
        "scan.rows": (rows, "count"),
        "formats.parse_s": (self_s["formats.read"], "s"),
        "formats.parse_bytes": (parse_bytes, "bytes"),
        "formats.write_s": (self_s["formats.format_float"], "s"),
        "formats.bytes_out": (bytes_out, "bytes"),
    }
