import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import sepcrit
from sepcrit import scan, states
from sepcrit.cli import main
from sepcrit.errors import (InvalidParameters, ParameterOutOfRange,
                            SingularOperand)
from sepcrit.formats import write_matrix

from conftest import (
    bell_state,
    child_env,
    nearly_hermitian_state,
    pure_products,
    reference_csv_row,
)


def write_state(path, matrix, dA, dB):
    with open(path, "w") as fh:
        write_matrix(fh, matrix, dA, dB)


def test_table1_row(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["table1", "--alpha", "7", "--beta", "1"])
    assert result.exit_code == 0
    assert "range=(3.19" in result.output
    assert "3.94" in result.output


def test_table1_empty_row():
    runner = CliRunner()
    result = runner.invoke(main, ["table1", "--alpha", "6"])
    assert result.exit_code == 0
    assert "range=--" in result.output


def test_table1_infinite_alpha():
    runner = CliRunner()
    result = runner.invoke(main, ["table1", "--alpha", "inf"])
    assert result.exit_code == 0
    assert "5.0000]" in result.output


def test_check_detects_bell(tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    runner = CliRunner()
    result = runner.invoke(main, [
        "check", str(path), "--map", "reduction d=2",
        "--alpha", "1", "--beta", "2", "--kind", "I",
    ])
    assert result.exit_code == 2
    assert "VIOLATED" in result.output
    assert "margin=" in result.output


def test_check_clean_state(tmp_path):
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    runner = CliRunner()
    result = runner.invoke(main, [
        "check", str(path), "--map", "reduction d=2",
        "--alpha", "1", "--beta", "2", "--kind", "I",
    ])
    assert result.exit_code == 0
    assert "VIOLATED" not in result.output


def test_check_malformed_file(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("2 2\nnot a matrix row\n")
    runner = CliRunner()
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == 1


def test_check_entropic_criterion(tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    runner = CliRunner()
    result = runner.invoke(main, [
        "check", str(path), "--map", "entropic", "--alpha", "1",
        "--beta", "1", "--no-ppt",
    ])
    assert result.exit_code == 2
    assert result.output.startswith("entropic:")


def test_choi_dump_reduction():
    runner = CliRunner()
    result = runner.invoke(main, ["choi", "reduction d=3"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0] == "3 3"
    assert len(lines) == 11  # header + 9 rows + verdict
    assert lines[-1].startswith("CP: no")


def test_choi_dump_parts_and_sampling():
    runner = CliRunner()
    full = runner.invoke(main, ["choi", "theta a=2 c=1,1,1", "--part", "map",
                                "--samples", "25", "--seed", "3"])
    part = runner.invoke(main, ["choi", "theta a=2 c=1,1,1", "--part", "1"])
    assert "CP: no" in full.output
    assert "positive (sampled, n=25, seed=3): yes" in full.output
    assert "CP: yes" in part.output


def test_so3_region_csv_deterministic():
    runner = CliRunner()
    args = ["so3-region", "--p", "0.2", "--alpha", "3", "--beta", "1",
            "--map", "reduction d=4", "--map", "entropic",
            "--resolution", "4"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output
    lines = first.output.splitlines()
    assert lines[0] == ("q,r,s,ppt,reduction_violated,reduction_margin,"
                        "entropic_violated,entropic_margin")
    assert len(lines) == 1 + 10  # grid points with i + j <= 3 (i.e. 0.8 * 4)


def test_so3_region_to_file(tmp_path):
    out = tmp_path / "region.csv"
    runner = CliRunner()
    result = runner.invoke(main, [
        "so3-region", "--p", "0.5", "--alpha", "2", "--map", "reduction d=4",
        "--resolution", "2", "--out", str(out),
    ])
    assert result.exit_code == 0
    assert out.read_text().startswith("q,r,s,ppt,")


def run_entry_point(*args):
    """Run the `sepcrit` entry point function in a subprocess, from the
    package this process imported: the source tree, or an installed
    copy when pytest runs outside the checkout (`child_env`)."""
    return subprocess.run(
        [sys.executable, "-c", "from sepcrit.cli import run; run()", *args],
        capture_output=True, text=True, timeout=60,
        env=child_env(Path(sepcrit.__file__).parents[1]))


def assert_fails(proc):
    """A `SepcritError` or an `OSError`: one `error: ...` line."""
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def assert_usage_error(proc, option):
    """A bad option value: click's `Usage:` block, ending in an `Error:`
    line that names the option."""
    assert proc.returncode == 1, proc.stdout
    assert proc.stdout == ""
    assert "Usage:" in proc.stderr
    assert f"Invalid value for '{option}'" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_entry_point_exit_code_on_violation(tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    args = ["check", str(path), "--map", "reduction d=2",
            "--alpha", "1", "--beta", "2", "--kind", "I"]
    proc = run_entry_point(*args)
    assert proc.returncode == 2, proc.stderr
    assert "VIOLATED" in proc.stdout


def test_entry_point_exit_code_clean(tmp_path):
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    proc = run_entry_point("check", str(path), "--map", "reduction d=2")
    assert proc.returncode == 0, proc.stderr
    assert "VIOLATED" not in proc.stdout


def test_entry_point_rejects_bad_alpha_text(tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    proc = run_entry_point("check", str(path), "--alpha", "foo")
    assert_usage_error(proc, "--alpha")


@pytest.mark.parametrize("alpha,echo", [("inf", "inf"), ("Infinity", "inf"),
                                        ("7.0", "7")])
def test_entry_point_alpha_takes_any_float_spelling(alpha, echo):
    # --alpha is a float: the line echoes alpha as it echoes beta
    want = {"inf": "range=(3.0000, 5.0000]", "7": "range=(3.1907, 3.9420)"}
    proc = run_entry_point("table1", "--alpha", alpha)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"alpha={echo} beta=1 map='phi_dk d=3 k=1' "
                           f"{want[echo]}\n")


@pytest.mark.parametrize("alpha", ["oo", "x", "nan"])
def test_entry_point_table1_rejects_bad_alpha(alpha):
    # a non-number is a usage error, NaN a SepcritError
    proc = run_entry_point("table1", "--alpha", alpha)
    if alpha == "nan":
        assert_fails(proc)
    else:
        assert_usage_error(proc, "--alpha")


def test_entry_point_table1_names_a_nan_beta():
    proc = run_entry_point("table1", "--alpha", "7", "--beta", "nan")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: beta=nan is not a number\n"


def test_entry_point_kind_name_is_the_routed_kind(tmp_path):
    # at beta = 1 a missing --kind is routed to II
    path = tmp_path / "sigma.mat"
    write_state(path, states.horodecki_state(4.8).matrix, 3, 3)
    args = ["check", str(path), "--map", "reduction d=3", "--map",
            "phi_dk d=3 k=1", "--map", "entropic", "--alpha", "2"]
    routed = run_entry_point(*args)
    named = run_entry_point(*args, "--kind", "II")
    assert routed.returncode == named.returncode == 2, routed.stderr
    assert named.stdout == routed.stdout
    assert len(routed.stdout.splitlines()) == 4


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_check_rejects_non_finite_alpha(alpha, tmp_path):
    # alpha = inf is the limit of the same inequality wherever the kind
    # admits beta: kind III's range holds no beta = 1
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    args = ["check", str(path), "--map", "reduction d=2", "--alpha", alpha]
    if alpha == "inf":
        for extra, line in (([], "lhs=-0.5 rhs=0 margin=-0.5 VIOLATED"),
                            (["--kind", "I"], "lhs=-0.5 rhs=0 margin=-0.5 "
                             "VIOLATED"),
                            (["--kind", "IV"], "lhs=0.5 rhs=0 margin=0.5 ok")):
            proc = run_entry_point(*args, *extra, "--no-ppt")
            code = 2 if line.endswith("VIOLATED") else 0
            assert (proc.returncode, proc.stdout, proc.stderr) == (
                code, f"reduction: {line}\n", "")
    for extra in [["--kind", "III"]] if alpha == "inf" else [[]]:
        result = CliRunner().invoke(main, args + extra)
        assert isinstance(result.exception, ParameterOutOfRange)
        proc = run_entry_point(*args, *extra)
        assert proc.returncode == 1
        assert proc.stderr.startswith(
            "error: beta=1.0 invalid for kind III" if alpha == "inf"
            else "error: ")
        assert "ok" not in proc.stdout.split()


@pytest.mark.parametrize("spec", ["", "   ", "entropic alpha=9"])
@pytest.mark.parametrize("command", ["check", "so3-region"])
def test_entry_point_rejects_bad_map_spec(command, spec, tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    args = {"check": ["check", str(path)],
            "so3-region": ["so3-region", "--p", "0.2", "--alpha", "3",
                           "--resolution", "2"]}[command]
    result = CliRunner().invoke(main, args + ["--map", spec])
    assert isinstance(result.exception, InvalidParameters)
    proc = run_entry_point(*args, "--map", spec)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# map specs that once escaped as a TypeError, ValueError or IndexError
# traceback, or dropped a key silently, and a d just above the bound
MALFORMED_SPECS = [
    "reduction x=3", "identity", "tau_u d=4 x=1", "reduction d=3 d=4",
    "reduction d=3.5", "phi_dk d=3 k=1.5", "reduction d=1e9",
    "reduction d=0", "reduction d=-2", "theta a=x c=1,1,1", "reduction d=",
    "breuer_hall d=4 tol=x", "theta a=2 c=1", "reduction d=100000",
    "reduction d=33", "breuer_hall d=4 tol=1e-6",
]


@pytest.mark.parametrize("spec", MALFORMED_SPECS)
@pytest.mark.parametrize("command", ["choi", "check"])
def test_entry_point_rejects_malformed_spec(command, spec, tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(3), 3, 3)
    args = {"choi": ["choi", spec],
            "check": ["check", str(path), "--map", spec]}[command]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, InvalidParameters)
    proc = run_entry_point(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def product_file(tmp_path):
    # on this pure product state, the reduction inequality's exact margin
    # 0 came out -2.2e-16, VIOLATED, at --tol 1e-16 before tol had a floor
    path = tmp_path / "prod.mat"
    write_state(path, pure_products(16, 7)[15], 3, 3)
    return path


@pytest.mark.parametrize("tol", ["9e-14", "1e-15", "1e-16"])
def test_entry_point_rejects_tol_below_floor(tol, tmp_path):
    runs = [["check", str(product_file(tmp_path)), "--map", "reduction d=3",
             "--alpha", "2", "--beta", "1", "--no-ppt"],
            ["so3-region", "--p", "0.2", "--alpha", "3", "--map",
             "reduction d=4", "--resolution", "2"]]
    for args in runs:
        args += ["--tol", tol]
        result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, ParameterOutOfRange)
        proc = run_entry_point(*args)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: tol=")
        assert "Traceback" not in proc.stderr
        assert "VIOLATED" not in proc.stdout


def test_entry_point_accepts_tol_at_floor(tmp_path):
    args = ["check", str(product_file(tmp_path)), "--map", "reduction d=3",
            "--alpha", "2", "--beta", "1", "--tol", "1e-13"]
    proc = run_entry_point(*args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" ok\n") == 2


@pytest.mark.parametrize("tol", ["nan", "1e-20", "-1"])
def test_entry_point_choi_rejects_bad_tol(tol):
    # these printed the Choi matrix and the CP line, then failed with
    # "matrix is not Hermitian within tol=..." (or, with --samples 0,
    # exited 0 without reading the tol)
    for samples in ("0", "5"):
        args = ["choi", "reduction d=2", "--samples", samples, "--tol", tol]
        result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, ParameterOutOfRange)
        assert result.stdout == ""
    proc = run_entry_point(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: tol=")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_entry_point_rejects_empty_check(tmp_path):
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    args = ["check", str(path), "--no-ppt"]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, InvalidParameters)
    proc = run_entry_point(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: nothing to evaluate")
    assert proc.stdout == ""


@pytest.mark.parametrize("extra", [["--beta", "7"], ["--beta", "-0.5"],
                                   ["--kind", "IV"]])
def test_entry_point_rejects_infinite_alpha_off_the_limit(extra):
    # alpha = inf is the limit of the same inequality for every beta and
    # kind: at beta 7 (kind I, and phi_dk's lambda2 is the identity) it
    # reads kind II's range, kind IV detects nothing, as at alpha = 7,
    # and kind III's X2 = rho is singular on this family at every alpha
    args = ["table1", "--alpha", "inf", *extra]
    want = {"7": "range=(3.0000, 5.0000]", "IV": "range=--"}.get(extra[1])
    proc = run_entry_point(*args)
    if want is None:
        result = CliRunner().invoke(main, args)
        assert isinstance(result.exception, SingularOperand)
        assert_fails(proc)
        assert proc.stderr == "error: X2 singular for beta=-0.5\n"
    else:
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("alpha=inf beta=")
        assert proc.stdout.endswith(f"map='phi_dk d=3 k=1' {want}\n")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_entry_point_rejects_non_finite_bisection_tol(tol):
    # these would skip the bisection and print the grid midpoints
    args = ["table1", "--alpha", "7", "--tol", tol]
    result = CliRunner().invoke(main, args)
    assert isinstance(result.exception, InvalidParameters)
    proc = run_entry_point(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: bisect_tol=")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("extra", [["--tol", "nan"], ["--p", "2"],
                                   ["--resolution", "1"],
                                   ["--alpha", "inf", "--beta", "-2"]])
def test_entry_point_so3_region_checks_before_output(extra, tmp_path):
    # these wrote the CSV header (or created the --out file), then exited 1
    args = ["so3-region", "--p", "0.2", "--alpha", "3", "--map",
            "reduction d=4", "--resolution", "2", *extra]
    proc = run_entry_point(*args)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert proc.stdout == ""
    out = tmp_path / "region.csv"
    proc = run_entry_point(*args, "--out", str(out))
    assert proc.returncode == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["so3-region", "choi", "table1",
                                     "check"])
def test_entry_point_out_file_equals_stdout(command, tmp_path):
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(9) / 9, 3, 3)
    args = {"so3-region": ["so3-region", "--p", "0.2", "--alpha", "3",
                           "--map", "reduction d=4", "--map", "entropic",
                           "--resolution", "4"],
            "choi": ["choi", "theta a=2 c=1,1,1", "--samples", "5"],
            "table1": ["table1", "--alpha", "7"],
            "check": ["check", str(path), "--map", "reduction d=3",
                      "--alpha", "2"]}[command]
    out = tmp_path / "out.txt"
    to_stdout = run_entry_point(*args)
    assert to_stdout.returncode == 0, to_stdout.stderr
    assert run_entry_point(*args, "--out", "-").stdout == to_stdout.stdout
    to_file = run_entry_point(*args, "--out", str(out))
    assert to_file.returncode == 0, to_file.stderr
    assert to_file.stdout == ""
    assert out.read_bytes() == to_stdout.stdout.encode()


@pytest.mark.parametrize("command", ["table1", "check"])
def test_entry_point_unopenable_out_is_an_error(command, tmp_path):
    # an --out path in a missing directory escaped as a traceback
    args = ["table1", "--alpha", "7"]
    if command == "check":
        path = tmp_path / "mixed.mat"
        write_state(path, np.eye(9) / 9, 3, 3)
        args = ["check", str(path), "--map", "reduction d=3"]
    proc = run_entry_point(*args, "--out", str(tmp_path / "nodir" / "x.txt"))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_so3_region_infinite_alpha():
    args = ["so3-region", "--p", "0.2", "--alpha", "inf", "--map",
            "breuer_hall d=4", "--resolution", "4"]
    proc = run_entry_point(*args)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "q,r,s,ppt,breuer_hall_violated,breuer_hall_margin"
    assert len(lines) == 1 + 10


@pytest.mark.parametrize("gamma,code", [(4.8, 2), (2.5, 0)])
def test_entry_point_check_infinite_alpha(gamma, code, tmp_path):
    # table1 gives the limit witness's range as (3.0000, 5.0000]
    path = tmp_path / "sigma.mat"
    write_state(path, states.horodecki_state(gamma).matrix, 3, 3)
    proc = run_entry_point("check", str(path), "--alpha", "inf", "--map",
                           "phi_dk d=3 k=1")
    assert proc.returncode == code, proc.stderr
    line = proc.stdout.splitlines()[1]
    assert line.startswith("phi_dk: ")
    assert line.endswith(" VIOLATED" if code else " ok")


def test_duplicate_labels_count_per_base_name(tmp_path):
    # the k-th criterion with a base name is <name>k; 'entropic' twice
    # printed two 'entropic:' lines in check, and breuer_hall,
    # breuer_hall_tilde, breuer_hall labelled the third breuer_hall3
    specs = ["breuer_hall d=4", "breuer_hall_tilde d=4", "breuer_hall d=4",
             "entropic", "entropic", "breuer_hall d=4"]
    args = ["--alpha", "3"] + [a for s in specs for a in ("--map", s)]
    labels = ["breuer_hall", "breuer_hall_tilde", "breuer_hall2", "entropic",
              "entropic2", "breuer_hall3"]
    region = CliRunner().invoke(main, ["so3-region", "--p", "0.2",
                                       "--resolution", "2", *args])
    assert region.exit_code == 0, region.output
    assert region.output.splitlines()[0] == ",".join(
        ["q", "r", "s", "ppt"] +
        [f"{label}_{col}" for label in labels
         for col in ("violated", "margin")])
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(16) / 16, 4, 4)
    check = CliRunner().invoke(main, ["check", str(path), "--no-ppt", *args])
    assert check.exit_code == 0, check.output
    assert [line.split(":")[0] for line in check.output.splitlines()] == \
        labels


@pytest.mark.parametrize("tol", ["inf", "1"])
def test_entry_point_rejects_vacuous_tol(tol, tmp_path):
    # from tol 1 up the clamp band covers every eigenvalue: the check of
    # |psi+> printed two ' ok' lines and exited 0, and so3-region wrote
    # all-zero margins
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(3), 3, 3)
    runs = [["check", str(path), "--map", "reduction d=3", "--alpha", "2"],
            ["so3-region", "--p", "0.2", "--alpha", "3", "--map",
             "reduction d=4", "--resolution", "2"],
            ["choi", "reduction d=2", "--samples", "5"]]
    for args in runs:
        proc = run_entry_point(*args, "--tol", tol)
        assert proc.returncode == 1, args
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: tol=")
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("entries", [[(0, 0, "nan")],
                                     [(0, 1, "inf"), (1, 0, "inf")]])
def test_entry_point_names_a_non_finite_entry(entries, tmp_path):
    # a nan read as "matrix is not Hermitian" (and passed the trace
    # check); a symmetric inf pair also printed numpy's RuntimeWarning
    M = np.eye(9, dtype=complex) / 9
    for i, j, value in entries:
        M[i, j] = float(value)
    path = tmp_path / "bad.mat"
    write_state(path, M, 3, 3)
    proc = run_entry_point("check", str(path), "--map", "reduction d=3")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: matrix has a non-finite entry (nan or inf)\n"


def test_entry_point_names_the_hermitian_check_when_the_norm_overflows(
        tmp_path):
    # ||A||_F overflowed and inf <= 1e-10 * inf passed the Hermitian check:
    # numpy's overflow warning, then "matrix is not positive semidefinite"
    path = tmp_path / "big.mat"
    path.write_text("2 1\n0.25,0 1e200,0\n0,0 0.75,0\n")
    proc = run_entry_point("check", str(path))
    assert_fails(proc)
    assert proc.stderr == "error: matrix is not Hermitian\n"


@pytest.mark.parametrize("tol", ["1e-13", "1e-10", "1e-9"])
def test_entry_point_checks_a_state_once(tol, tmp_path):
    # the state is checked at validation only: at --tol 1e-10 the entropic
    # and the beta 2 kind I runs exited 1 with "matrix is not Hermitian
    # within tol=1e-10" (the marginal and X were checked again), and at
    # 1e-13 every run did (PPT too)
    path = tmp_path / "asym.mat"
    write_state(path, nearly_hermitian_state(np.random.default_rng(5)), 3, 3)
    for extra in ([], ["--beta", "2", "--kind", "I"]):
        proc = run_entry_point("check", str(path), "--map", "entropic",
                               "--map", "reduction d=3", "--alpha", "2",
                               "--tol", tol, *extra)
        assert proc.returncode == 0, proc.stderr
        assert "error:" not in proc.stderr
        assert [line.split(":")[0] for line in proc.stdout.splitlines()] \
            == ["ppt", "entropic", "reduction"]
        assert proc.stdout.count(" ok\n") == 3


@pytest.mark.parametrize("tol, code", [("1e-3", 0), ("2e-3", 1), ("0.5", 1)])
def test_entry_point_tol_ceiling(tol, code, tmp_path):
    # tols up to 1 were accepted, and at --tol 0.7 the check of |00><00|
    # printed "reduction: ... VIOLATED" and exited 2
    path = tmp_path / "00.mat"
    write_state(path, np.diag(np.eye(9)[0]), 3, 3)
    runs = [["check", str(path), "--map", "reduction d=3", "--alpha", "1",
             "--beta", "2", "--kind", "I"],
            ["so3-region", "--p", "0.2", "--alpha", "3", "--map",
             "reduction d=4", "--resolution", "2"],
            ["choi", "reduction d=2", "--samples", "5"]]
    for args in runs:
        proc = run_entry_point(*args, "--tol", tol)
        assert proc.returncode == code, (args, proc.stderr)
        if code:
            assert proc.stdout == ""
            assert proc.stderr.startswith("error: tol=")
            assert "Traceback" not in proc.stderr
        else:
            assert "VIOLATED" not in proc.stdout


def test_entry_point_refuses_a_map_that_is_not_positive(tmp_path):
    # |+><+| (x) |+><+| is separable; kossakowski a=0,0,0,0 is eps - I,
    # which maps |+><+| out of the PSD cone, and its inequality reads
    # VIOLATED on this state (margin -0.5)
    path = tmp_path / "pp.mat"
    write_state(path, np.full((4, 4), 0.25), 2, 2)
    proc = run_entry_point("check", str(path), "--map",
                           "kossakowski a=0,0,0,0")
    assert_fails(proc)
    assert "not positive" in proc.stderr
    # the reduction map, in the same class, is positive
    proc = run_entry_point("check", str(path), "--map",
                           "kossakowski a=0,1,1,0")
    assert proc.returncode == 0, proc.stderr
    assert "VIOLATED" not in proc.stdout


def test_entry_point_not_psd_names_the_tol(tmp_path):
    # validation admits eigenvalues down to -1e-9, the clamp only down
    # to -tol * ||rho||_F, here -3.5e-10 at the default tol
    path = tmp_path / "neg.mat"
    write_state(path, np.diag([1 / 8 + 5e-10] + [1 / 8] * 7 + [-5e-10]),
                3, 3)
    args = ["check", str(path), "--map", "reduction d=3"]
    proc = run_entry_point(*args)
    assert_fails(proc)
    assert "tol=1e-09" in proc.stderr and "tol*||A||_F" in proc.stderr
    proc = run_entry_point(*args, "--tol", "1e-3")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("command,dim,d,dB", [
    ("table1", 3, 4, 3), ("so3-region", 4, 3, 4), ("check", 2, 3, 2)])
def test_entry_point_names_the_map_d_on_a_mismatch(command, dim, d, dB,
                                                   tmp_path):
    # these said "state dim 9 != dA*dB = 12", naming neither the map nor
    # the state's dB
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(dim * dim) / dim ** 2, dim, dim)
    args = {"table1": ["table1", "--alpha", "7"],
            "so3-region": ["so3-region", "--p", "0.2", "--alpha", "2",
                           "--resolution", "4"],
            "check": ["check", str(path)]}[command]
    proc = run_entry_point(*args, "--map", f"reduction d={d}")
    assert_fails(proc)
    assert proc.stderr == f"error: map d={d} != state dB = {dB}\n"


@pytest.mark.parametrize("specs,extra,error", [
    (["reduction d=4", "reduction d=3"], [], "map d=4 != state dB = 3"),
    (["reduction d=3", "reduction d=4"], ["--alpha", "-1"],
     "alpha=-1.0 must be >= 0")])
def test_entry_point_several_maps_keep_their_error_order(specs, extra, error,
                                                         tmp_path):
    # the first criterion in order raises, whatever the maps after it:
    # check builds every map entry before the criteria run, but leaves a
    # map of the wrong d to its own criterion
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(9) / 9, 3, 3)
    proc = run_entry_point("check", str(path),
                           *(a for s in specs for a in ("--map", s)), *extra)
    assert_fails(proc)
    assert proc.stderr == f"error: {error}\n"


def test_entry_point_check_with_several_maps(tmp_path):
    # on |psi+>, PPT and reduction detect it and transposition's
    # (alpha, beta) = (1, 1) inequality does not
    path = tmp_path / "bell.mat"
    write_state(path, bell_state(2), 2, 2)
    proc = run_entry_point("check", str(path), "--map", "reduction d=2",
                           "--map", "transposition d=2")
    assert proc.returncode == 2, proc.stderr
    assert [line.split()[0] + " " + line.split()[-1]
            for line in proc.stdout.splitlines()] == [
        "ppt: VIOLATED", "reduction: VIOLATED", "transposition: ok"]


def test_entry_point_choi_rejects_negative_samples():
    # --samples -3 exited 0 and skipped the sampled positivity test
    proc = run_entry_point("choi", "reduction d=2", "--samples", "-3")
    assert_usage_error(proc, "--samples")
    proc = run_entry_point("choi", "reduction d=2", "--samples", "0")
    assert proc.returncode == 0, proc.stderr
    assert "positive (sampled" not in proc.stdout


def test_entry_point_so3_region_error_of_a_stack():
    # tau_u's X1 is singular at one grid point of the scan's one stack
    proc = run_entry_point("so3-region", "--p", "0.2", "--alpha", "1",
                           "--beta", "-0.5", "--kind", "III", "--map",
                           "tau_u d=4", "--resolution", "20")
    assert proc.returncode == 1
    assert "X1 singular for beta=-0.5" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_entry_point_choi_rejects_negative_seed():
    # --seed -1 printed the Choi matrix and the CP line, then numpy's
    # ValueError traceback
    proc = run_entry_point("choi", "reduction d=2", "--samples", "3",
                           "--seed", "-1")
    assert_usage_error(proc, "--seed")


def test_entry_point_so3_region_error_of_a_later_stack(tmp_path):
    # at resolution 320 the singular grid point lies in the second stack:
    # the first stack's 256 rows are computed, and not written
    out = tmp_path / "r320.csv"
    args = ["so3-region", "--p", "0.2", "--alpha", "1", "--beta", "-0.5",
            "--kind", "III", "--map", "tau_u d=4", "--resolution", "320"]
    for proc in (run_entry_point(*args),
                 run_entry_point(*args, "--out", str(out))):
        assert_fails(proc)
        assert "X1 singular for beta=-0.5" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,interval", [
    (["--alpha", "13"], "(3.0019, 5.0000]"),
    # 14 bisection levels, tested as several midpoint trees
    (["--alpha", "7", "--tol", "1e-6"], "(3.1907, 3.9420)"),
    # two live brackets in every tree
    (["--alpha", "10", "--tol", "1e-6"], "(3.0157, 4.6834)"),
], ids=["alpha13", "alpha7-tol1e-6", "alpha10-tol1e-6"])
def test_entry_point_table1_line(args, interval):
    proc = run_entry_point("table1", *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (f"alpha={args[1]} beta=1 map='phi_dk d=3 k=1' "
                           f"range={interval}\n")


def test_entry_point_so3_region_lazy_x():
    # beta 0.5 on a family stack: X is built only where it is read
    proc = run_entry_point("so3-region", "--p", "0.2", "--alpha", "2",
                           "--beta", "0.5", "--map", "transposition d=4",
                           "--map", "breuer_hall d=4", "--resolution", "8")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == ("q,r,s,ppt,transposition_violated,transposition_margin,"
                      "breuer_hall_violated,breuer_hall_margin")
    assert len(rows) == scan.so3_grid_count(0.2, 8)
    for row in rows:
        assert re.match(r"[0-9.]*,[0-9.]*,[0-9.]*,[01],[01],[^,]+,[01],",
                        row), row


def test_entry_point_so3_region_over_several_stacks():
    # 561 grid points: three stacks, with q-rows that straddle them; the
    # CSV equals the one built one state at a time
    specs = ["breuer_hall d=4", "reduction d=4", "entropic"]
    proc = run_entry_point("so3-region", "--p", "0.2", "--alpha", "3",
                           *(a for s in specs for a in ("--map", s)),
                           "--resolution", "40")
    assert proc.returncode == 0, proc.stderr
    crit = [scan.RegionCriterion("breuer_hall",
                                 scan.parse_map_spec(specs[0]), 3.0),
            scan.RegionCriterion("reduction",
                                 scan.parse_map_spec(specs[1]), 3.0),
            scan.RegionCriterion("entropic", None, 4.0)]
    want = [scan.region_csv_header([c.label for c in crit])]
    for q, row in scan.so3_grid(0.2, 40):
        for r, s in row:
            checked = scan.check_state(states.so3_state(0.2, q, r), crit,
                                       include_ppt=True)
            want.append(reference_csv_row(q, r, max(s, 0.0), checked))
    assert len(want) == 1 + 561 > 1 + 2 * scan.STACK_STATES
    assert proc.stdout == "".join(line + "\n" for line in want)


def test_entry_point_reads_tab_separated_entries(tmp_path):
    # any whitespace between entries reads the same bits
    spaces, tabs = tmp_path / "spaces.mat", tmp_path / "tabs.mat"
    write_state(spaces, np.eye(9) / 9, 3, 3)
    tabs.write_text(spaces.read_text().replace(" ", "\t"))
    args = ["--map", "reduction d=3", "--alpha", "2"]
    want = run_entry_point("check", str(spaces), *args)
    assert want.returncode == 0, want.stderr
    assert want.stdout.count(" ok\n") == 2
    got = run_entry_point("check", str(tabs), *args)
    assert (got.returncode, got.stdout) == (0, want.stdout)


def test_entry_point_names_a_file_that_is_not_utf8(tmp_path):
    # a stray byte (here a UTF-16 byte-order mark) ended in a
    # UnicodeDecodeError traceback
    path = tmp_path / "bom.mat"
    path.write_bytes(b"\xff\xfe2 2\n")
    proc = run_entry_point("check", str(path))
    assert_fails(proc)
    assert proc.stderr == f"error: {path}: not UTF-8 text (byte 0xff)\n"


def test_entry_point_reads_a_byte_order_mark(tmp_path):
    # a file that starts with the UTF-8 byte-order mark was refused:
    # "line 1: expected header 'dA dB', got '\ufeff2 2'"
    plain, marked = tmp_path / "plain.mat", tmp_path / "marked.mat"
    write_state(plain, np.eye(4) / 4, 2, 2)
    text = plain.read_bytes()
    marked.write_bytes(b"\xef\xbb\xbf" + text)
    args = ["--map", "reduction d=2"]
    want = run_entry_point("check", str(plain), *args)
    assert want.returncode == 0, want.stderr
    got = run_entry_point("check", str(marked), *args)
    assert (got.returncode, got.stdout) == (0, want.stdout)


@pytest.mark.parametrize("where, line", [
    (0, r"line 1: expected header 'dA dB', got '\ufeff2 2'"),
    (1, r"line 2: bad entry '\ufeff0.25,0' (expected 're,im')")])
def test_entry_point_refuses_a_later_byte_order_mark(where, line, tmp_path):
    # only the first mark of the file is dropped: a second one, or one
    # that starts a later line, is text that does not parse
    path = tmp_path / "marked.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[where] = b"\xef\xbb\xbf" + lines[where]
    path.write_bytes(b"\xef\xbb\xbf" + b"".join(lines))
    proc = run_entry_point("check", str(path))
    assert_fails(proc)
    assert proc.stderr == f"error: {line}\n"


@pytest.mark.parametrize("spec", [
    "theta a=1e155 c=1e155,1e155", "kossakowski a=1e200,0,0,1e200"])
def test_entry_point_refuses_a_map_whose_norm_overflows(spec, tmp_path):
    # these printed overflow warnings, then read the maximally mixed
    # state VIOLATED with lhs=0 rhs=0.5 and exited 2
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    args = ["check", str(path), "--no-ppt", "--beta", "0.5"]
    proc = run_entry_point(*args, "--map", spec)
    assert_fails(proc)
    assert proc.stderr.count("\n") == 1 and "not a finite number" \
        in proc.stderr
    proc = run_entry_point(*args, "--map", spec.replace("e155", "e150")
                           .replace("e200", "e150"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" ok\n") and proc.stderr == ""


@pytest.mark.parametrize("command", ["so3-region", "check"])
@pytest.mark.parametrize("alpha,beta,power", [
    ("0", "1", "1.0"), ("inf", "1", "inf"), ("-3", "1", "-2.0")])
def test_entry_point_names_the_entropic_power(command, alpha, beta, power,
                                              tmp_path):
    # the entropic inequality runs at alpha + beta: an error named an
    # alpha that was not given (alpha=1.0 for --alpha 0)
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    where = (["--p", "0.2", "--resolution", "4"] if command == "so3-region"
             else [str(path)])
    proc = run_entry_point(command, *where, "--alpha", alpha, "--beta", beta,
                           "--map", "entropic")
    assert_fails(proc)
    assert proc.stderr == (f"error: alpha+beta={power} must be finite, "
                           ">= 0 and != 1\n")


def test_entry_point_kind_one_needs_commutation(tmp_path):
    # tau_u's lambda2 does not commute with a random separable state, so
    # kind I has no verdict: one error line naming the norm and threshold
    path = tmp_path / "sep.mat"
    write_state(path, states.random_separable(4, 4, 4, 3).matrix, 4, 4)
    proc = run_entry_point("check", str(path), "--map", "tau_u d=4",
                           "--kind", "I", "--beta", "2")
    assert_fails(proc)
    assert proc.stderr.count("\n") == 1
    assert re.fullmatch(r"error: \[X2, rho\] norm \S+ exceeds tolerance "
                        r"\S+\n", proc.stderr)


def test_entry_point_power_overflow_is_an_error(tmp_path):
    # X1's largest eigenvalue 500 to the power 200 overflowed: numpy's
    # two RuntimeWarnings, then "theta: lhs=nan ... margin=nan ok", exit 0
    path = tmp_path / "mixed.mat"
    write_state(path, np.eye(4) / 4, 2, 2)
    proc = run_entry_point("check", str(path), "--map", "theta a=1e3 c=1e3,1",
                           "--alpha", "1", "--beta", "200", "--kind", "IV")
    assert_fails(proc)
    assert proc.stderr == ("error: X's largest eigenvalue 500.0 raised to "
                           "beta=200.0 overflows a float\n")
    assert "RuntimeWarning" not in proc.stderr


def write_psi3(tmp_path):
    """|psi+><psi+| of C^3 (x) C^3 in the matrix file format: read back,
    its largest eigenvalue is 1.0000000000000004."""
    path = tmp_path / "psi3.mat"
    psi = states.max_entangled(3)
    write_state(path, np.outer(psi, psi.conj()), 3, 3)
    return path


@pytest.mark.parametrize("options,power", [
    (["--map", "reduction d=3", "--alpha", "1e19"], "1e+19"),
    (["--map", "entropic", "--alpha", "1e308", "--beta", "0"], "1e+308")])
def test_entry_point_rho_power_overflow_is_an_error(tmp_path, options, power):
    # rho's power overflowed: numpy's RuntimeWarning, then
    # "reduction: lhs=inf rhs=inf margin=nan ok" or
    # "entropic: lhs=0 rhs=inf margin=-inf ok", exit 0
    proc = run_entry_point("check", str(write_psi3(tmp_path)), *options,
                           "--no-ppt")
    assert_fails(proc)
    assert proc.stderr == ("error: rho's largest eigenvalue 1.0000000000000004 "
                           f"raised to the power {power} overflows a float\n")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("alpha,line", [
    ("1e18", "reduction: lhs=2.44552471e+192 rhs=7.33657414e+192 "
             "margin=-4.89104943e+192 VIOLATED"),
    ("inf", "reduction: lhs=-0.666666667 rhs=0 margin=-0.666666667 VIOLATED")])
def test_entry_point_rho_power_below_overflow(tmp_path, alpha, line):
    proc = run_entry_point("check", str(write_psi3(tmp_path)), "--map",
                           "reduction d=3", "--alpha", alpha, "--no-ppt")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, line + "\n", "")


def test_entry_point_sum_overflow_is_an_error(tmp_path):
    # lam ** alpha and X1's pairing vector are finite, and their dot
    # overflowed: numpy's RuntimeWarning, then
    # "theta: lhs=inf rhs=0 margin=inf ok", exit 0
    proc = run_entry_point("check", str(write_psi3(tmp_path)), "--map",
                           "theta a=1e3 c=1e3,1,1", "--alpha", "1e18",
                           "--beta", "50", "--kind", "IV", "--no-ppt")
    assert_fails(proc)
    assert proc.stderr == ("error: lhs is not a finite float (a sum "
                           "overflowed)\n")
