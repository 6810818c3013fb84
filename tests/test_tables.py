"""Per-map tables for the paper families: a family stack takes its map
weights (and, for SO(3), its PPT value) from tables computed once per
map, by linearity.  The oracle is the same stack without its family,
which runs the generic einsum and eigvalsh."""

import gc
import math
import weakref

import numpy as np
import pytest

from sepcrit import criteria, linalg, maps, scan, states
from sepcrit.criteria import Kind

# |table - generic| for map weights and for SO(3) PPT values, which are
# O(1): the largest seen is one rounding unit (2.2e-16) on both grids.
TABLE_BOUND = 4 * np.finfo(float).eps

SO3_SPECS = ["breuer_hall d=4", "tau_u d=4", "breuer_hall_tilde d=4",
             "reduction d=4", "transposition d=4", "phi_dk d=4 k=1",
             "theta a=3 c=1,1,1,1"]
HORODECKI_SPECS = ["phi_dk d=3 k=1", "phi_dk d=3 k=2", "reduction d=3",
                   "transposition d=3", "theta a=2 c=2,1,1"]


def generic(stack):
    """The stack with its eigendecomposition but no family: the generic
    path, as a stack read from files takes it."""
    return states.DensityMatrix(stack.matrix, stack.dA, stack.dB,
                                eig=stack.eig)


def so3_rows(resolution=60):
    for q, row in scan.so3_grid(0.2, resolution):
        yield states.so3_stack(0.2, q, [r for r, _ in row])


def table1_grid_stack():
    grid = scan._grid_spectra("phi_dk d=3 k=1")[0]
    return states.horodecki_stack(grid)


def all_maps(specs):
    for spec in specs:
        dec = scan.parse_map_spec(spec)
        yield from (dec.lambda1, dec.lambda2, dec.map)


def criteria_for(specs):
    crits = [scan.RegionCriterion(f"{spec}/{a}", scan.parse_map_spec(spec),
                                  a, 1.0, Kind.II)
             for spec in specs for a in (3.0, 7.0, math.inf)]
    return crits + [scan.PPT()]


def assert_tables_match(stack, specs, tol):
    table, plain = criteria.Spectra(stack, tol), criteria.Spectra(
        generic(stack), tol)
    for m in all_maps(specs):
        err = np.abs(table.map(m).weights - plain.map(m).weights).max()
        assert err <= TABLE_BOUND
        assert "X" not in vars(table.map(m))  # no [I (x) L](rho) built
    assert np.abs(table.ppt - plain.ppt).max() <= TABLE_BOUND
    for crit in criteria_for(specs):
        assert [v.violated for v in crit.verdicts(table)] == \
            [v.violated for v in crit.verdicts(plain)]


class TestTablesMatchGeneric:
    def test_so3_res60_grid(self):
        for stack in so3_rows():
            assert_tables_match(stack, SO3_SPECS, linalg.DEFAULT_TOL)

    def test_table1_grid(self):
        stack = table1_grid_stack()
        assert_tables_match(stack, HORODECKI_SPECS,
                            scan.BISECTION_CRITERION_TOL)

    def test_so3_ppt_is_closed_form(self):
        E = states.so3_eigenbasis().pt_table
        assert E.shape == (4, 16) and not E.flags.writeable
        # partial transposition keeps the trace 2J + 1 of P_J
        assert np.allclose(E.sum(-1), [1, 3, 5, 7])

    def test_horodecki_ppt_bits_unchanged(self):
        # the partial transposes of the 3x3 family do not commute, so its
        # PPT stays one eigvalsh per state
        assert states.horodecki_eigenbasis().pt_table is None
        stack = table1_grid_stack()
        want = np.linalg.eigvalsh(linalg.partial_transpose(
            stack.matrix, 3, 3))[..., 0]
        assert np.array_equal(criteria.Spectra(stack).ppt, want)
        for k in (0, 150, 300):
            assert criteria.ppt_check(stack[k]) == want[k]


class TestLazyX:
    def test_x_built_only_when_read(self):
        stack = next(so3_rows(8))
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        sp = criteria.Spectra(stack)
        scan.RegionCriterion("t", dec, 3.0, 1.0).verdicts(sp)
        assert "X" not in vars(sp.map(dec.lambda1))
        # beta != 1 reads X's spectrum, with today's bits
        got = scan.RegionCriterion("t", dec, 2.0, 0.5).verdicts(sp)
        plain = criteria.Spectra(generic(stack))
        assert got == scan.RegionCriterion("t", dec, 2.0, 0.5).verdicts(
            plain)
        assert np.array_equal(sp.map(dec.lambda1).X,
                              maps.extend_apply(dec.lambda1, stack.matrix, 4))


class TestTableLifetime:
    def test_table_goes_with_its_map(self):
        family = states.so3_eigenbasis()
        m = maps.breuer_hall_decomposition(d=4).lambda1
        criteria.Spectra(next(so3_rows(8))).map(m)
        table = weakref.ref(m.cache[family])
        del m
        gc.collect()
        assert table() is None

    def test_each_map_has_its_own_table(self):
        # maps built and freed in turn, of different d, on both families
        for _ in range(3):
            for stack, spec in ((next(so3_rows(8)), "reduction d=4"),
                                (states.horodecki_stack([3.5]),
                                 "reduction d=3")):
                m = scan.parse_map_spec(spec).lambda1
                want = criteria.Spectra(generic(stack)).map(m).weights
                got = criteria.Spectra(stack).map(m).weights
                assert np.abs(got - want).max() <= TABLE_BOUND
                assert list(m.cache) == [stack.family[0]]
                del m
                gc.collect()


@pytest.mark.parametrize("k", [0, 3])
def test_one_state_slice_has_the_stack_bits(k):
    stack = next(so3_rows(8))
    dec = maps.breuer_hall_decomposition(d=4)
    sp = criteria.Spectra(stack)
    one = criteria.Spectra(stack[k])
    assert np.array_equal(sp.map(dec.lambda1).weights[k],
                          one.map(dec.lambda1).weights)
    assert sp.ppt[k] == one.ppt
