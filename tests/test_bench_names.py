"""The names the benchmark's tracer wraps stay in the package.

`bench/tracing.py` looks each `TARGETS` entry up by name, with `getattr`
on the module or `cls.__dict__` for a method, and a missing one fails
every traced benchmark run.  These tests load that file by path, as it
is, and look the names up the same way."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from sepcrit import criteria

BENCH = Path(__file__).parents[1] / "bench"


def tracing_targets():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = tracing_targets()


@pytest.mark.parametrize("modname, attr, kind", [
    (modname, attr, kind) for modname, attr, _, kind in TARGETS],
    ids=[name for _, _, name, _ in TARGETS])
def test_every_traced_name_resolves(modname, attr, kind):
    home = importlib.import_module(f"sepcrit.{modname}")
    if kind == "method":
        cls_name, meth = attr.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth))
    else:
        assert callable(getattr(home, attr, None))


def test_the_verdict_rule_literal_is_there():
    # bench/test_smoke.py rewrites this text to break every verdict
    assert "bool(margin < -tol * scale)" in inspect.getsource(criteria)
