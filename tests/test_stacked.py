"""Stacked evaluation (`criteria.Spectra` and `scan.RegionCriterion`)
against the one-state criteria, bit for bit, and the stacked state
builders against the one-state ones."""

import math

import numpy as np
import pytest

from sepcrit import criteria, linalg, maps, scan, states
from sepcrit.criteria import Kind
from sepcrit.errors import (
    AllProjectionsVanish,
    CommutativityViolated,
    InvalidState,
    NotPSD,
    SingularOperand,
)
from conftest import nearly_hermitian_state, reference_csv_row


def fresh(rho):
    """rho again, with an empty cache."""
    return states.DensityMatrix(rho.matrix.copy(), rho.dA, rho.dB)


def keep_eig(rho):
    """rho again, with a copy of its own eigendecomposition and family
    and an empty cache: the one-state reference for a state of the paper
    families, whose eigendecomposition comes from their algebra, which
    an eigensolve does not reproduce bit for bit, and whose map weights
    and PPT come from per-family tables."""
    family, coef, order = rho.family
    return states.DensityMatrix(
        rho.matrix.copy(), rho.dA, rho.dB,
        eig=linalg.HermitianEig(*(a.copy() for a in rho.eig)),
        family=(family, coef.copy(), order.copy()))


def same(verdicts, results):
    """Every state's stacked verdict has the bits of its one-state
    result."""
    assert len(verdicts) == len(results)
    for k, res in enumerate(results):
        got = verdicts[k]
        assert (got.lhs, got.rhs, got.margin, got.violated,
                got.commutator_norm) == (res.lhs, res.rhs, res.margin,
                                         res.violated, res.commutator_norm)
        assert (got.kind, got.tol) == (res.kind, res.tol)


def stacked(sp, dec, alpha, beta=1.0, kind=None):
    """The (alpha, beta)-inequality on every state of sp."""
    return scan.RegionCriterion("c", dec, alpha, beta, kind).verdicts(sp)


def gamma_verdicts(alpha, beta, dec, kind, sp):
    """table1's violation test on the states of sp (states of the 3x3
    family, at BISECTION_CRITERION_TOL): the (alpha, beta)-inequality
    evaluated on the whole stack."""
    crit = scan.RegionCriterion("gamma", dec, alpha, beta, kind)
    return [res.violated for res in crit.verdicts(sp)]


def separable_stack(d, n, rng):
    return states.DensityMatrix(
        [states.random_separable(d, d, 4, rng).matrix for _ in range(n)],
        d, d)


def family_stacks(rng):
    """Stacks of the three kinds the scans and the tests use, with the
    maps to evaluate on them and the one-state reference of a state:
    `fresh` (revalidated by an eigensolve) for eigensolved stacks,
    `keep_eig` for the paper families."""
    bh = maps.breuer_hall_decomposition(d=4)
    red4 = maps.reduction_decomposition(4)
    tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
    red3 = maps.reduction_decomposition(3)
    phi = maps.phi_dk_decomposition(3, 1)
    grid = np.arange(2.0, 5.005, 0.25)
    grid[-1] = 5.0
    return [
        (separable_stack(3, 6, rng), [red3, phi], fresh),
        (separable_stack(4, 5, rng), [red4, bh, tau], fresh),
        (states.so3_stack(0.2, 0.3, [0.05, 0.1, 0.2, 0.35, 0.45]),
         [red4, bh, tau], keep_eig),
        (states.horodecki_stack(grid), [red3, phi], keep_eig),
    ]


# each beta other than 1 comes twice, at two alphas: the second call
# reads the pairing vector the first one kept
TRIPLES = [(1, 2, Kind.I), (2.5, 3, Kind.I), (4, 2, Kind.I),
           (1, 1, Kind.II), (3, 0.5, Kind.II), (7, 1, Kind.II),
           (5, 0.5, Kind.II),
           (1, -0.5, Kind.III), (2, -1, Kind.III), (3, -0.5, Kind.III),
           (1, 1, Kind.IV), (2, 0, Kind.IV), (0.5, 2, Kind.IV),
           (2, 2, Kind.IV)]


class TestStackedEqualsOneState:
    @pytest.mark.parametrize("tol", [1e-9, 1e-13])
    def test_alpha_beta_kinds(self, rng, tol):
        for stack, decs, ref in family_stacks(rng):
            rhos = list(stack)
            sp = criteria.Spectra(stack, tol)
            for dec in decs:
                for a, b, kind in TRIPLES:
                    if kind is Kind.I and not dec.lambda2_is_identity:
                        continue
                    try:
                        got = stacked(sp, dec, a, b, kind)
                    except SingularOperand:
                        with pytest.raises(SingularOperand):
                            for rho in rhos:
                                criteria.alpha_beta_inequality(
                                    ref(rho), dec, a, b, kind, tol)
                        continue
                    same(got, [criteria.alpha_beta_inequality(
                        ref(rho), dec, a, b, kind, tol) for rho in rhos])

    def test_kind_one_commutator_on_so3_rows(self):
        # tau_u commutes with SO(3)-invariant states, so kind I runs with
        # a map lambda2 and reports the commutator norm
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        stack = states.so3_stack(0.1, [0.2, 0.3, 0.1], [0.3, 0.1, 0.6])
        got = stacked(criteria.Spectra(stack), dec, 1, 2, Kind.I)
        one = [criteria.alpha_beta_inequality(rho, dec, 1, 2, Kind.I)
               for rho in stack]
        assert all(res.commutator_norm is not None for res in one)
        same(got, one)

    def test_kind_one_commutator_violation_raises_alike(self, rng):
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        stack = separable_stack(4, 3, rng)
        with pytest.raises(CommutativityViolated) as one:
            criteria.alpha_beta_inequality(stack[0], dec, 1, 2,
                                           Kind.I)
        with pytest.raises(CommutativityViolated) as many:
            stacked(criteria.Spectra(stack), dec, 1, 2, Kind.I)
        assert str(many.value) == str(one.value)

    @pytest.mark.parametrize("alpha", [0, 0.5, 4])
    def test_entropic(self, rng, alpha):
        ent = scan.RegionCriterion("ent", None, alpha)
        for stack, _, ref in family_stacks(rng):
            sp = criteria.Spectra(stack)
            one = [criteria.entropic_inequality(ref(rho), alpha)
                   for rho in stack]
            same(ent.verdicts(sp), one)
            # the kernel on subsystem B, which no region criterion reads
            lhs, rhs = np.array([(res.lhs, res.rhs) for res in
                                 criteria._entropic(sp, alpha, "B")]).T
            one = [criteria.entropic_inequality(ref(rho), alpha, "B")
                   for rho in stack]
            assert (lhs.tolist(), rhs.tolist()) == (
                [res.lhs for res in one], [res.rhs for res in one])

    def test_ppt_and_limit_witness(self, rng):
        for stack, decs, ref in family_stacks(rng):
            sp = criteria.Spectra(stack)
            rhos = list(stack)
            assert sp.ppt.tolist() == [criteria.ppt_check(ref(rho))
                                       for rho in rhos]
            for dec in decs:
                got = stacked(sp, dec, math.inf)
                assert [res.lhs for res in got] == [
                    criteria.limit_witness(ref(rho), dec.map)
                    for rho in rhos]
                same(got, [criteria.alpha_beta_inequality(
                    ref(rho), dec, math.inf, 1, Kind.II) for rho in rhos])

    def test_limit_witness_degenerate_groups(self):
        # maximally mixed states make one group of every eigenvalue; the
        # zero map vanishes on all of them
        stack = states.DensityMatrix([np.eye(9) / 9] * 3, 3, 3)
        phi = maps.phi_dk_decomposition(3, 1)
        got = stacked(criteria.Spectra(stack), phi, math.inf)
        assert [res.lhs for res in got] == [
            criteria.limit_witness(rho, phi.map) for rho in stack]
        zero = maps.MatrixMap(3, np.zeros((9, 9)))
        with pytest.raises(AllProjectionsVanish):
            stacked(criteria.Spectra(stack),
                    maps.CPDecomposition(zero, zero, "zero"), math.inf)

    def test_one_state_input(self, rng):
        dec = maps.phi_dk_decomposition(3, 1)
        for rho in separable_stack(3, 4, rng):
            one = stacked(criteria.Spectra(rho), dec, 2, 0.5)
            same(one, [criteria.alpha_beta_inequality(fresh(rho), dec, 2,
                                                      0.5)])


def rank_deficient(d):
    rho = np.zeros((d * d, d * d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


class TestEmptyStacks:
    @pytest.mark.parametrize("stack", [
        lambda: states.DensityMatrix(np.zeros((0, 9, 9)), 3, 3),
        lambda: states.horodecki_stack([]),
        lambda: states.so3_stack([], [], [])],
        ids=["dense", "horodecki", "so3"])
    def test_every_criterion_gives_empty_results(self, stack):
        # the dense stack raised a bare ValueError from linalg.fro
        stack = stack()
        sp = criteria.Spectra(stack)
        dec = maps.reduction_decomposition(stack.dB)
        crits = [criteria.PPT(), scan.RegionCriterion("e", None, 2.0),
                 scan.RegionCriterion("inf", dec, math.inf)]
        crits += [scan.RegionCriterion("ab", dec, 2.0, beta, kind)
                  for beta, kind in ((1.0, None), (0.5, None), (0.5, "IV"))]
        for crit in crits:
            got = crit.verdicts(sp)
            assert isinstance(got, criteria.ResultStack)
            assert len(got) == 0 and list(got) == []


class TestStackErrors:
    """A stack holding one bad state raises what the state raises alone."""

    def test_singular_operand(self, rng):
        dec = maps.reduction_decomposition(3)
        mats = [states.random_separable(3, 3, 4, rng).matrix,
                rank_deficient(3),
                states.random_separable(3, 3, 4, rng).matrix]
        stack = states.DensityMatrix(mats, 3, 3)
        for a, b, kind in [(1, -0.5, Kind.III), (2, -1, Kind.III)]:
            with pytest.raises(SingularOperand) as one:
                criteria.alpha_beta_inequality(stack[1], dec, a, b,
                                               kind)
            with pytest.raises(SingularOperand) as many:
                stacked(criteria.Spectra(stack), dec, a, b, kind)
            assert str(many.value) == str(one.value)

    def test_not_psd(self):
        # validation admits eigenvalues down to -1e-9; at tol 1e-13 the
        # clamp rule rejects this one
        eps = 5e-10
        bad = np.diag([1 / 8 + eps] + [1 / 8] * 7 + [-eps]).astype(complex)
        stack = states.DensityMatrix([np.eye(9) / 9, bad, np.eye(9) / 9],
                                     3, 3)
        dec = maps.reduction_decomposition(3)
        with pytest.raises(NotPSD) as one:
            criteria.alpha_beta_inequality(stack[1], dec, 1, 1,
                                           Kind.II, tol=1e-13)
        with pytest.raises(NotPSD) as many:
            stacked(criteria.Spectra(stack, 1e-13), dec, 1, 1, Kind.II)
        assert str(many.value) == str(one.value)
        assert "min eigenvalue" in str(one.value)


class TestMinEigenvalueHermitianCheck:
    """A state is checked for Hermiticity once, at validation, whatever
    the tol: below the validation tol of 1e-10 that check is kept and
    the eigensolves add none, at or above it they skip theirs too.  The
    partial transpose, marginal and X are solved as their Hermitian
    parts, unchecked."""

    def _solved_unchecked(self, rng, tols):
        M = nearly_hermitian_state(rng)
        assert linalg.is_hermitian(M)
        assert linalg.fro(M - M.conj().T) > 1e-11 * max(1, linalg.fro(M))
        rho = states.DensityMatrix(M, 3, 3)
        pt = linalg.partial_transpose(M, 3, 3)
        want = np.linalg.eigvalsh((pt + pt.conj().T) / 2)[0]
        assert linalg.min_eigenvalue(pt) == want
        dec = maps.reduction_decomposition(3)
        for tol in tols:
            assert criteria.ppt_check(rho, tol) == want
            criteria.entropic_inequality(rho, 2, "A", tol)
            criteria.entropic_inequality(rho, 2, "B", tol)
            criteria.alpha_beta_inequality(rho, dec, 2, 2, Kind.I, tol)
            criteria.structural_criterion(rho, dec.lambda1, tol)

    def test_kept_below_validation_tol(self, rng):
        rho = states.random_separable(3, 3, 4, rng).matrix.copy()
        rho[0, 1] += 1e-9 * np.linalg.norm(rho)
        with pytest.raises(InvalidState, match="not Hermitian"):
            states.DensityMatrix(rho, 3, 3)
        self._solved_unchecked(rng, (criteria.TOL_FLOOR, 1e-11))

    def test_skipped_at_or_above_validation_tol(self, rng):
        A = states.random_separable(3, 3, 4, rng).matrix.copy()
        A[0, 1] += np.linalg.norm(A)  # far from Hermitian
        assert linalg.min_eigenvalue(A) == \
            np.linalg.eigvalsh((A + A.conj().T) / 2)[0]
        self._solved_unchecked(rng, (1e-10, 1e-9, criteria.TOL_CEILING))


# The Horodecki matrix, sum_i c_i O_i, against its formula, entrywise in
# units of eps * |entry|: the largest seen on the gamma grid is 1.4, and
# the formula's zeros are exact zeros of the sum.
HORODECKI_ULPS = 2


def horodecki_matrix(gamma):
    """The 3x3 family from its definition, operators built afresh."""
    psi = states.max_entangled(3)
    proj = np.outer(psi, psi.conj())
    sigma_plus = np.zeros((9, 9), dtype=complex)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        sigma_plus[3 * i + j, 3 * i + j] = 1 / 3
    V = states.swap_operator(3)
    sigma_minus = V @ sigma_plus @ V.conj().T
    g = np.asarray(gamma, dtype=float)[..., None, None]
    return (2 * proj + g * sigma_plus + (5 - g) * sigma_minus) / 7


class TestStateStacks:
    def test_horodecki_operators_cached_read_only(self):
        ops = states.horodecki_operators()
        assert states.horodecki_operators() is ops
        assert not any(op.flags.writeable for op in ops)

    def test_horodecki_matrix_near_its_formula(self):
        # the stack's matrix is sum_i c_i O_i, not the formula's bits
        grid = np.arange(2.0, 5.005, 0.01)
        grid[-1] = 5.0
        eps = np.finfo(float).eps
        pairs = [(states.horodecki_stack(grid).matrix, horodecki_matrix(grid))]
        pairs += [(states.horodecki_state(g).matrix, horodecki_matrix([g])[0])
                  for g in (2.0, 3.37, 4.5, 5.0)]
        for got, want in pairs:
            assert (np.abs(got - want) <= HORODECKI_ULPS * eps * np.abs(want)
                    ).all()

    def test_stack_split_equals_one_by_one(self):
        rs = [0.0, 0.1, 0.35]
        stack = states.so3_stack(0.2, 0.3, rs)
        assert stack.matrix.shape == (3, 16, 16)
        assert not stack.matrix.flags.writeable
        for rho, r in zip(stack, rs):
            one = states.so3_state(0.2, 0.3, r)
            assert np.array_equal(rho.matrix, one.matrix)
            for got, want in zip(rho.eig, one.eig):
                assert np.array_equal(got, want)


class TestScansUseStacks:
    def test_region_rows_come_from_stacked_verdicts(self):
        # no per-state criterion call and no cache entry: the rows equal
        # the stacked verdicts of each q-row
        crit = [scan.RegionCriterion("red", maps.reduction_decomposition(4),
                                     3, 1, Kind.II),
                scan.RegionCriterion("ent", None, 0.5)]
        rows = list(scan.so3_region(0.2, crit, 6))
        k = 0
        for q, row in scan.so3_grid(0.2, 6):
            stack = states.so3_stack(0.2, q, [r for r, _ in row])
            sp = criteria.Spectra(stack)
            want = {c.label: c.verdicts(sp) for c in crit}
            for j in range(len(row)):
                assert rows[k].ppt == (sp.ppt[j] >= -1e-9)
                for c in crit:
                    assert rows[k].results[c.label] == \
                        want[c.label][j]
                k += 1
        assert k == len(rows)

    def test_gamma_verdicts_of_one_state(self):
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        for alpha in (7.0, math.inf):
            for g in (3.1, 3.5, 4.8):
                rho = states.horodecki_state(g)
                sp = criteria.Spectra(rho, scan.BISECTION_CRITERION_TOL)
                got = gamma_verdicts(alpha, 1.0, dec, None, sp)
                if alpha == math.inf:
                    want = criteria.limit_witness(fresh(rho), dec.map) < 0
                else:
                    want = criteria.alpha_beta_inequality(
                        fresh(rho), dec, alpha, 1.0, Kind.II,
                        scan.BISECTION_CRITERION_TOL).violated
                assert got == [want]
                assert rho.cache == {}


class TestRegionStacks:
    def test_rows_across_stack_boundaries_equal_one_state_checks(self):
        # a grid of three stacks, whose q-rows straddle stack boundaries
        p, resolution, tol = 0.2, 40, linalg.DEFAULT_TOL
        red = maps.reduction_decomposition(4)
        bh = maps.breuer_hall_decomposition(d=4)
        tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        assert red.lambda2_is_identity
        crit = [scan.RegionCriterion("red1", red, 2, 2, Kind.I),
                scan.RegionCriterion("bh2", bh, 2, 0.5, Kind.II),
                scan.RegionCriterion("tau4", tau, 2, 2, Kind.IV),
                scan.RegionCriterion("ent05", None, 0.5),
                scan.RegionCriterion("ent4", None, 4),
                scan.RegionCriterion("inf", bh, math.inf)]
        labels = [c.label for c in crit]
        count = scan.so3_grid_count(p, resolution)
        assert count > 2 * scan.STACK_STATES
        starts, k = [], 0
        for _, row in scan.so3_grid(p, resolution):
            starts.append(k)
            k += len(row)
        assert any(start % scan.STACK_STATES for start in starts)
        # some q-row's first and last points lie in different stacks
        assert any(start // scan.STACK_STATES
                   != (end - 1) // scan.STACK_STATES
                   for start, end in zip(starts, starts[1:] + [count]))
        rows = list(scan.so3_region(p, crit, resolution, tol))
        assert len(rows) == count
        for row in rows:
            checked = scan.check_state(states.so3_state(p, row.q, row.r),
                                       crit, include_ppt=True, tol=tol)
            (_, ppt), *results = checked
            assert row.ppt is (not ppt.violated)
            assert list(row.results) == labels
            for label, res in results:
                assert repr(tuple(row.results[label])) == repr(tuple(res))
            assert scan.region_csv_row(row, labels) == \
                reference_csv_row(row.q, row.r, row.s, checked)

    def test_error_raises_before_its_stack(self):
        # tau_u's X1 is singular at (q, r) = (0, 1 - p) alone; at this
        # resolution that point opens the grid's second stack
        p, stack = 0.2, scan.STACK_STATES
        resolution = stack * 5 // 4
        crit = [scan.RegionCriterion("t", maps.parse_map_spec("tau_u d=4"),
                                     1, -0.5, Kind.III)]
        emitted = []
        with pytest.raises(SingularOperand, match="X1 singular for beta=-0.5"):
            for row in scan.so3_region(p, crit, resolution):
                emitted.append((row.q, row.r))
        assert emitted == [(0.0, j / resolution) for j in range(stack)]

    def test_result_stack_reads_like_one_state_results(self):
        dec = maps.breuer_hall_decomposition(d=4)
        stack = states.so3_stack(0.2, [0.0, 0.3, 0.6], [0.1, 0.4, 0.1])
        crit = scan.RegionCriterion("bh", dec, 3)
        got = crit.verdicts(criteria.Spectra(stack))
        assert isinstance(got, criteria.ResultStack)
        assert len(got) == 3
        one = [crit.evaluate(keep_eig(rho)) for rho in stack]
        assert [repr(tuple(res)) for res in got] == \
            [repr(tuple(res)) for res in one]
        assert [got[k] for k in range(3)] == list(got)
        assert got.violated == [res.violated for res in one]
        assert all(type(v) is bool for v in got.violated)
        assert got == crit.verdicts(criteria.Spectra(stack))
        assert got != scan.RegionCriterion("bh", dec, 4).verdicts(
            criteria.Spectra(stack))
        assert got.__eq__(list(got)) is NotImplemented and got != list(got)

    def test_region_results_is_a_read_only_view(self):
        crit = [scan.RegionCriterion("red", maps.reduction_decomposition(4),
                                     3),
                scan.RegionCriterion("ent", None, 4)]
        row = next(iter(scan.so3_region(0.2, crit, 4)))
        assert dict(row.results) == {c.label: c.evaluate(
            states.so3_state(0.2, row.q, row.r)) for c in crit}
        assert len(row.results) == 2 and "red" in row.results
        with pytest.raises(TypeError):
            row.results["red"] = None
