"""Smoke test of the benchmark harness at a tiny run length.

    python3 -m pytest bench/test_smoke.py -q

Checks that every workload emits exactly the metrics BENCHMARK.json
names, with their units, that its gates run and pass, that the gates fail
on a deliberately broken copy of the package, and that the harness
refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root, workload, trace=0, seconds="0.1"):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, lines


def copy_checkout(dest, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(BENCH, dest / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    result, lines = result_of(run_bench(ROOT, workload, trace))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    gates = [line for line in lines if line.startswith("gate ")]
    assert gates and all(": pass " in line for line in gates)
    assert any(line.startswith("env {") for line in lines)
    assert "metric error_rate = 0 ratio" in lines


def test_gates_fail_on_broken_verdicts(tmp_path):
    copy_checkout(tmp_path)
    criteria = tmp_path / "src" / "sepcrit" / "criteria.py"
    text = criteria.read_text()
    broken = text.replace("bool(margin < -tol * scale)", "bool(margin < 1.0)")
    assert broken != text
    criteria.write_text(broken)
    for workload in WORKLOADS:
        result, lines = result_of(run_bench(tmp_path, workload))
        assert not result["correct"], workload
        assert result["failed"] >= 1, workload
        assert any(": FAIL " in line for line in lines), workload


def test_refuses_to_run_without_sources(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    proc = run_bench(tmp_path, WORKLOADS[0])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
