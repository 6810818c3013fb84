"""Text formats: the bipartite matrix file (CSV rows are built in `scan`).

Matrix file layout: first non-comment line holds "dA dB"; the next
dA*dB non-comment lines each hold dA*dB complex entries written as
"re,im" pairs separated by any whitespace (written with single spaces).
Lines starting with '#' are comments; a leading byte-order mark is dropped.
Doubles are written with 17 significant digits so values round-trip exactly.
"""

from __future__ import annotations

from typing import TextIO

import numpy as np

from .errors import ParseError
from .states import DensityMatrix


def format_float(x: float, digits: int = 17) -> str:
    return f"{x:.{digits}g}"


def write_matrix(out: TextIO, matrix: np.ndarray, dA: int, dB: int) -> None:
    out.write(f"{dA} {dB}\n")
    for row in np.asarray(matrix, dtype=complex):
        out.write(
            " ".join(
                f"{format_float(z.real)},{format_float(z.imag)}" for z in row
            )
            + "\n"
        )


def parse_matrix_file(lines) -> tuple[np.ndarray, int, int]:
    """Parse the matrix format; raises ParseError naming the bad line."""
    content = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        content.append((lineno, text))
    if not content:
        raise ParseError("line 1: empty file")

    lineno, header = content[0]
    parts = header.split()
    try:
        dA, dB = (int(p) for p in parts)
        if dA < 1 or dB < 1:
            raise ValueError
    except ValueError:
        raise ParseError(
            f"line {lineno}: expected header 'dA dB', got {header!r}"
        ) from None

    dim = dA * dB
    rows = content[1:]
    if len(rows) != dim:
        raise ParseError(
            f"line {content[-1][0]}: expected {dim} matrix rows, "
            f"got {len(rows)}"
        )

    # re, im of every entry in row-major order, viewed as complex at the end
    tokens = []
    for lineno, text in rows:
        entries = text.split()
        if len(entries) != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} entries, got {len(entries)}"
            )
        for entry in entries:
            pair = entry.split(",")
            if len(pair) != 2:
                raise _bad_entry(lineno, entry)
            tokens += pair
    try:
        values = np.array(tokens, dtype=float)
    except ValueError:
        # numpy converts by float()'s rules: name the first token it rejects
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                entry = ",".join(tokens[k - k % 2:k - k % 2 + 2])
                raise _bad_entry(rows[k // (2 * dim)][0], entry) from None
        raise
    return values.view(complex).reshape(dim, dim), dA, dB


def _bad_entry(lineno: int, entry: str) -> ParseError:
    return ParseError(f"line {lineno}: bad entry {entry!r} (expected 're,im')")


def read_density_matrix(path) -> DensityMatrix:
    try:
        with open(path, encoding="utf-8-sig") as fh:
            M, dA, dB = parse_matrix_file(fh)
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text (byte {exc.object[exc.start]:#04x})"
        ) from None
    return DensityMatrix(M, dA, dB)
