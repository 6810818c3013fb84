"""Command-line front end.

Subcommands: table1, so3-region, check, choi.  Map arguments take
'family key=value ...' strings, e.g. "reduction d=3" or
"theta a=2 c=1,1,1".  Exit codes for `check`: 0 no violation, 2 a
criterion was violated, 1 error.  Every subcommand computes its whole
output before it opens --out, so a run that fails writes nothing.
"""

from __future__ import annotations

import sys
from collections import Counter

import click

from . import maps, scan
from .criteria import TOL_CEILING, TOL_FLOOR, check_entropic_alpha, check_tol
from .errors import InvalidParameters, SepcritError
from .formats import format_float, read_density_matrix, write_matrix
from .linalg import DEFAULT_TOL


TOL_HELP = ("Verdict threshold and clamp band, relative; from "
            f"{TOL_FLOOR:g} to {TOL_CEILING:g}.")

ALPHA_HELP = ("Exponent on the state; 'inf' is the limit witness (beta 1, "
              "kind II).")

# the one --kind option: a name of I-IV goes as it is to the criteria,
# which route a missing one by beta
kind_option = click.option(
    "--kind", type=click.Choice(["I", "II", "III", "IV"]), default=None,
    help="Inequality kind (default: routed by beta).")


def _build_criteria(map_specs, alpha, beta, kind):
    """One criterion per map spec.  The k-th with the same base name (the
    map family, or 'entropic') is labelled <name>k for k >= 2.  The
    entropic inequality's power is alpha + beta, and an error names it
    so."""
    criteria, seen = [], Counter()
    for spec in map_specs:
        tokens = spec.split()
        if tokens[:1] == ["entropic"]:
            if len(tokens) > 1:
                raise InvalidParameters(
                    f"'entropic' takes no parameters, got {spec!r}")
            power = check_entropic_alpha(alpha + beta, "alpha+beta")
            crit = scan.RegionCriterion("entropic", None, power)
        else:
            dec = scan.parse_map_spec(spec)
            crit = scan.RegionCriterion(dec.name, dec, alpha, beta, kind)
        seen[crit.label] += 1
        if seen[crit.label] > 1:
            crit = crit._replace(label=f"{crit.label}{seen[crit.label]}")
        criteria.append(crit)
    return criteria


@click.group()
def main():
    """Scalar separability criteria from positive maps."""


@main.command("table1")
@click.option("--alpha", type=float, required=True, help=ALPHA_HELP)
@click.option("--beta", type=float, default=1.0, show_default=True)
@click.option("--map", "map_spec", default="phi_dk d=3 k=1",
              show_default=True, help="Map spec string.")
@kind_option
@click.option("--tol", "bisect_tol", type=float, default=1e-4,
              show_default=True, help="Bisection tolerance on gamma; finite, "
              "at least 1e-6.")
@click.option("--out", default="-", show_default=True)
def table1_cmd(alpha, beta, map_spec, kind, bisect_tol, out):
    """Gamma range of the 3x3 test family where the inequality is violated."""
    interval = scan.table1(alpha, beta, map_spec, kind, bisect_tol)
    with click.open_file(out, "w") as fh:
        fh.write(
            f"alpha={format_float(alpha, 9)} beta={format_float(beta, 9)} "
            f"map={map_spec!r} range={interval}\n"
        )


@main.command("so3-region")
@click.option("--p", type=float, required=True)
@click.option("--alpha", type=float, required=True, help=ALPHA_HELP)
@click.option("--beta", type=float, default=1.0, show_default=True)
@kind_option
@click.option("--map", "map_specs", multiple=True, required=True,
              help="Map spec (repeatable); 'entropic' adds the entropic "
              "inequality at power alpha+beta.")
@click.option("--resolution", type=int, default=100, show_default=True)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
              help=TOL_HELP)
@click.option("--out", default="-", show_default=True)
def so3_region_cmd(p, alpha, beta, kind, map_specs, resolution, tol, out):
    """CSV scan of the SO(3)-invariant family over the (q, r) simplex."""
    criteria = _build_criteria(map_specs, alpha, beta, kind)
    labels = [c.label for c in criteria]
    lines = [scan.region_csv_header(labels)]
    lines += (scan.region_csv_row(row, labels)
              for row in scan.so3_region(p, criteria, resolution, tol))
    with click.open_file(out, "w") as fh:
        fh.writelines(line + "\n" for line in lines)


@main.command("check")
@click.argument("state_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--map", "map_specs", multiple=True,
              help="Map spec (repeatable); 'entropic' adds the entropic "
              "inequality at power alpha+beta.")
@click.option("--alpha", type=float, default=1.0, show_default=True,
              help=ALPHA_HELP)
@click.option("--beta", type=float, default=1.0, show_default=True)
@kind_option
@click.option("--ppt/--no-ppt", default=True, show_default=True)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
              help=TOL_HELP)
@click.option("--out", default="-", show_default=True)
@click.pass_context
def check_cmd(ctx, state_file, map_specs, alpha, beta, kind, ppt, tol, out):
    """Evaluate criteria on a state read from a matrix file; with
    --no-ppt, at least one --map is needed."""
    rho = read_density_matrix(state_file)
    criteria = _build_criteria(map_specs, alpha, beta, kind)
    rows = scan.check_state(rho, criteria, include_ppt=ppt, tol=tol)
    any_violated = False
    with click.open_file(out, "w") as fh:
        for label, res in rows:
            verdict = "VIOLATED" if res.violated else "ok"
            any_violated |= res.violated
            fh.write(
                f"{label}: lhs={format_float(res.lhs, 9)} "
                f"rhs={format_float(res.rhs, 9)} "
                f"margin={format_float(res.margin, 9)} {verdict}\n"
            )
    ctx.exit(2 if any_violated else 0)


@main.command("choi")
@click.argument("map_spec")
@click.option("--part", type=click.Choice(["map", "1", "2"]), default="map",
              show_default=True, help="Full map or one CP half.")
@click.option("--samples", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Also report sampled positivity over this many random "
              "pure states.")
@click.option("--seed", type=click.IntRange(min=0), default=0,
              show_default=True)
@click.option("--tol", type=float, default=DEFAULT_TOL, show_default=True,
              help="Threshold of the sampled positivity test; from "
              f"{TOL_FLOOR:g} to {TOL_CEILING:g}.")
@click.option("--out", default="-", show_default=True)
def choi_cmd(map_spec, part, samples, seed, tol, out):
    """Print a catalog map's Choi matrix and its CP verdict."""
    check_tol(tol)
    m, cp, min_eig = scan.choi_dump(map_spec, part)
    ok = samples > 0 and maps.is_positive_sampled(m, samples, seed, tol)[0]
    with click.open_file(out, "w") as fh:
        write_matrix(fh, m.choi, m.d, m.d)
        fh.write(
            f"CP: {'yes' if cp else 'no'} "
            f"(min eigenvalue = {format_float(min_eig, 9)})\n"
        )
        if samples > 0:
            fh.write(
                f"positive (sampled, n={samples}, seed={seed}): "
                f"{'yes' if ok else 'no'}\n"
            )


def run():
    try:
        code = main(standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (SepcritError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    run()
