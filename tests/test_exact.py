"""An exact reference for Table 1: the phi_{3,1} margins on the 3x3
Horodecki family at beta = 1 in rational arithmetic.

sigma_gamma = sum_b c_b P_b over the four block projectors of the
family, with c = (0, 2/7, gamma/21, (5 - gamma)/21).  With lambda2 the
identity, the beta = 1 margin is

    sum_b c_b^alpha sum_c c_c T[b][c]  -  sum_b rank(P_b) c_b^(alpha+1),

T[b][c] = Tr(P_b [I (x) L1](P_c)), L1(X) = 2 eps(X) + eps(S X S^dag).
The P_b and L1 have rational entries, so for integer alpha and rational
gamma the margin is an exact Fraction.  L1 is written out from its
definition here, not read from sepcrit.
"""

from fractions import Fraction

import numpy as np
import pytest

from sepcrit import criteria, scan, states

D = 3
PAIRS = [(i, j) for i in range(D) for j in range(D)]  # |ij>, row-major


def block_projectors():
    """P_0 (the rest), |psi+><psi+|, 3 sigma_plus, 3 sigma_minus as 9x9
    lists of Fractions."""
    psi = [[Fraction(int(x[0] == x[1] and y[0] == y[1]), 3) for y in PAIRS]
           for x in PAIRS]

    def diagonal(cells):
        return [[Fraction(int(x == y and x in cells)) for y in PAIRS]
                for x in PAIRS]

    plus = diagonal({(0, 1), (1, 2), (2, 0)})
    minus = diagonal({(1, 0), (2, 1), (0, 2)})
    rest = [[Fraction(int(x == y)) - psi[a][b] - plus[a][b] - minus[a][b]
             for b, y in enumerate(PAIRS)] for a, x in enumerate(PAIRS)]
    return [rest, psi, plus, minus]


def extend_l1(P):
    """[I (x) L1](P): L1 acts on each dB x dB block, and its output is
    the diagonal 2 X_jj + X_(j-1)(j-1)."""
    out = [[Fraction(0)] * (D * D) for _ in range(D * D)]
    for a in range(D):
        for b in range(D):
            for j in range(D):
                out[a * D + j][b * D + j] = (
                    2 * P[a * D + j][b * D + j]
                    + P[a * D + (j - 1) % D][b * D + (j - 1) % D])
    return out


def trace_table():
    P = block_projectors()
    X = [extend_l1(Pc) for Pc in P]
    n = D * D
    T = [[sum(Pb[x][y] * Xc[y][x] for x in range(n) for y in range(n))
          for Xc in X] for Pb in P]
    rank = [sum(Pb[x][x] for x in range(n)) for Pb in P]
    return T, rank


T, RANK = trace_table()


def exact_margin(alpha: int, gamma: Fraction) -> Fraction:
    c = [Fraction(0), Fraction(2, 7), gamma / 21, (5 - gamma) / 21]
    lhs = sum(c[b] ** alpha * sum(c[k] * T[b][k] for k in range(4))
              for b in range(4) if c[b])
    rhs = sum(RANK[b] * c[b] ** (alpha + 1) for b in range(4))
    return lhs - rhs


# The exact roots of the margin in (2, 5), to 10 decimals; alpha = 13
# has one, and its range stays violated up to gamma = 5.
ROOTS = {7: (3.1906655582, 3.9420071922),
         10: (3.0157175152, 4.6833572405),
         13: (3.0018558152,)}

# |float margin - exact margin| on the gamma grid below, relative to
# max(|lhs|, |rhs|): a few rounding units.  The largest seen is 3.0 eps
# (3.3 eps on table1's 301-point grid).
FLOAT_BOUND = 8 * np.finfo(float).eps


def test_tables_are_rational_and_exact():
    assert RANK == [2, 1, 3, 3]
    # L1 preserves the trace of each block up to the factor 3
    for k in range(4):
        assert sum(T[b][k] for b in range(4)) == 3 * RANK[k]


@pytest.mark.parametrize("alpha", sorted(ROOTS))
def test_roots_and_table1_endpoints(alpha):
    step = Fraction(1, 10 ** 10)
    for root in ROOTS[alpha]:
        g = Fraction(root)
        assert exact_margin(alpha, g - step) * \
            exact_margin(alpha, g + step) < 0
    bisect_tol = 1e-4
    got = scan.table1(float(alpha), bisect_tol=bisect_tol)
    ends = [got.lower] + ([got.upper] if got.upper_open else [])
    assert len(ends) == len(ROOTS[alpha])
    tol = Fraction(bisect_tol)
    for end, root in zip(ends, ROOTS[alpha]):
        assert abs(end - root) <= bisect_tol
        g = Fraction(end)
        assert exact_margin(alpha, g - tol) * \
            exact_margin(alpha, g + tol) < 0
    if not got.upper_open:  # a closed end rests on a violated gamma = 5
        assert got.upper == 5.0 and exact_margin(alpha, Fraction(5)) < 0


@pytest.mark.parametrize("alpha", sorted(ROOTS))
def test_float_margins_match_exact(alpha):
    grid = np.linspace(2.0, 5.0, 31)
    dec = scan.parse_map_spec("phi_dk d=3 k=1")
    sp = criteria.Spectra(states.horodecki_stack(grid),
                          scan.BISECTION_CRITERION_TOL)
    got = scan.RegionCriterion("gamma", dec, float(alpha)).verdicts(sp)
    for g, res in zip(grid, got):
        want = exact_margin(alpha, Fraction(g))
        scale = max(abs(res.lhs), abs(res.rhs))
        assert abs(Fraction(res.margin) - want) <= FLOAT_BOUND * scale
        assert res.violated == (want < 0)
