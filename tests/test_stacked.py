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
    DimensionMismatch,
    InvalidParameters,
    InvalidState,
    NotPSD,
    SingularOperand,
)
from conftest import LIMIT_DRIFT, nearly_hermitian_state, reference_csv_row


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
                same(got, [criteria.alpha_beta_inequality(
                    ref(rho), dec, math.inf, 1, Kind.II) for rho in rhos])
                # a bare map's witness: the stack's walk of its weights
                witness = [criteria.limit_witness(ref(rho), dec.map)
                           for rho in rhos]
                assert criteria._limit(
                    sp, sp.map(dec.map).weights).tolist() == witness
                for res, w in zip(got, witness):
                    assert res.violated == (w < 0)
                    assert abs(res.lhs - w) <= LIMIT_DRIFT * max(1.0, abs(w))

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

    @pytest.mark.parametrize("kind", [Kind.I, Kind.II, Kind.III, Kind.IV,
                                      Kind.ENTROPIC])
    def test_dense_stack_bits_equal_one_state_bits(self, rng, kind):
        # one state's sides are ndarray.dot and a stack's np.vecdot
        # (`linalg.vecdot`), kind IV's rhs np.vecdot on both: a numpy
        # whose two dots round differently fails here
        def bits(results):
            return [np.float64(x).view(np.uint64) for res in results
                    for x in (res.lhs, res.rhs, res.margin)]

        runs = {Kind.I: [(1, 2), (2.5, 3)], Kind.II: [(1, 1), (3, 0.5)],
                Kind.III: [(1, -0.5), (2, -1)], Kind.IV: [(1, 1), (2, 0.5)],
                Kind.ENTROPIC: [(0.5, None), (2, None)]}[kind]
        stacks = [(separable_stack(3, 5, rng), [
                      maps.reduction_decomposition(3),
                      maps.phi_dk_decomposition(3, 1)]),
                  (states.DensityMatrix([states.random_density(16, rng)
                                         for _ in range(4)], 4, 4),
                   [maps.reduction_decomposition(4),
                    maps.breuer_hall_decomposition(d=4)])]
        for stack, decs in stacks:
            sp = criteria.Spectra(stack)
            for alpha, beta in runs:
                if kind is Kind.ENTROPIC:
                    got = criteria._entropic(sp, alpha)
                    one = [criteria.entropic_inequality(fresh(rho), alpha)
                           for rho in stack]
                    assert bits(got) == bits(one)
                    continue
                for dec in decs:
                    if kind is Kind.I and not dec.lambda2_is_identity:
                        continue
                    got = stacked(sp, dec, alpha, beta, kind)
                    one = [criteria.alpha_beta_inequality(
                        fresh(rho), dec, alpha, beta, kind) for rho in stack]
                    assert bits(got) == bits(one)

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


class TestStackFixedCosts:
    """The stack paths that table1 pays once per stack keep the bits and
    the errors of the one-state paths."""

    EDGES = [0.0, -0.0, 1.0, -1.0, 1e-14, -1e-14, 2.5, -2.5, 1e300,
             -1e300]

    @pytest.mark.parametrize("reversed_", [False, True])
    def test_verdicts_give_each_state_its_one_state_bits(self, rng,
                                                         reversed_):
        lhs = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(
            -15, 3, 40), self.EDGES])
        # margins at, just inside and just beyond -tol * max(1, |l|, |r|)
        rhs = lhs + 1e-9 * np.maximum(1.0, np.abs(lhs)) * rng.choice(
            [-1.0, 1.0, 1 - 1e-6, 1 + 1e-6], lhs.size)
        rhs[-len(self.EDGES):] = self.EDGES[::-1]
        norms = rng.random(lhs.size)
        for tol in (1e-13, 1e-9):
            cases = [(rhs, norms), (rhs, None)] + [
                (r, None) for r in (0.0, -0.0, 1e-9, -3.0, 1e300)]
            for r, comm in cases:
                many = criteria._verdicts(lhs, r, reversed_, Kind.II, tol,
                                          comm)
                assert len(many) == lhs.size
                for k in range(lhs.size):
                    one = criteria._verdicts(
                        lhs[k], r[k] if isinstance(r, np.ndarray) else r,
                        reversed_, Kind.II, tol,
                        None if comm is None else float(comm[k]))[0]
                    # repr tells -0.0 from 0.0
                    assert repr(many[k]) == repr(one)
                    assert type(many[k].rhs) is float

    def test_lam_is_the_clamp_of_the_eigenvalues(self, rng):
        for stack, _, _ in family_stacks(rng):
            for tol in (1e-13, 1e-9, 1e-3):
                lam = criteria.Spectra(stack, tol).lam
                ref = linalg.clamp_psd(stack.eigenvalues, tol)
                assert lam.tobytes() == ref.tobytes()

    def test_lam_takes_the_norm_once(self, rng, monkeypatch):
        calls = []
        fro = linalg.spectral_fro
        monkeypatch.setattr(linalg, "spectral_fro",
                            lambda w: calls.append(1) or fro(w))
        sp = criteria.Spectra(separable_stack(3, 4, rng))
        sp.lam
        sp.map(maps.reduction_decomposition(3).lambda1)
        assert sp.fro is sp.fro and len(calls) == 1

    def test_lam_keeps_the_not_psd_error(self):
        eps = 5e-10
        bad = np.diag([1 / 8 + eps] + [1 / 8] * 7 + [-eps]).astype(complex)
        stack = states.DensityMatrix([np.eye(9) / 9, bad], 3, 3)
        with pytest.raises(NotPSD) as ref:
            linalg.clamp_psd(stack.eigenvalues, 1e-13)
        for _ in range(2):
            with pytest.raises(NotPSD) as got:
                criteria.Spectra(stack, 1e-13).lam
            assert str(got.value) == str(ref.value)

    def test_a_lazy_attribute_that_raises_raises_on_every_read(self, rng):
        dec = maps.parse_map_spec("tau_u d=4")
        sp = criteria.Spectra(separable_stack(4, 3, rng))
        entry = sp.map(dec.lambda2)
        messages = set()
        for _ in range(3):
            with pytest.raises(CommutativityViolated) as exc:
                entry.checked_commutator
            messages.add(str(exc.value))
        assert len(messages) == 1
        assert "checked_commutator" not in vars(entry)
        assert entry.commutator is entry.commutator


def catalog_decompositions(d):
    """Every catalog decomposition of d = 3 or 4 (tau_u at d = 3 with the
    cyclic shift, the Breuer-Hall maps only at the even d)."""
    decs = [maps.reduction_decomposition(d), maps.identity_decomposition(d),
            maps.transposition_decomposition(d),
            maps.theta_decomposition(d - 1, [1.0] * d),
            maps.kossakowski_decomposition(np.ones((d, d)) - np.eye(d))]
    decs += [maps.phi_dk_decomposition(d, k) for k in range(d)]
    if d == 4:
        decs += [maps.tau_u_decomposition(d=4),
                 maps.breuer_hall_decomposition(d=4),
                 maps.breuer_hall_tilde_decomposition(d=4)]
    else:
        decs.append(maps.tau_u_decomposition(maps.shift_operator(3)))
    return decs


def catalog_maps(d):
    """Both CP halves and the difference map of every catalog
    decomposition of d = 3 or 4 (`catalog_decompositions`)."""
    return [m for dec in catalog_decompositions(d)
            for m in (dec.lambda1, dec.lambda2, dec.map)]


def bits(a):
    """An array's shape and bytes, equal only where every bit is."""
    a = np.asarray(a)
    return a.shape, np.ascontiguousarray(a).tobytes()


def entry_bits(entry):
    """The bits of everything a map entry holds on a dense stack: X,
    the weights, X's eigensolve, its overlap with rho's eigenbasis and
    the commutator norm."""
    return [bits(a) for a in (entry.X, entry.weights, *entry.eig,
                              entry.overlap, entry.commutator)]


class TestFill:
    """`Spectra.fill` builds many maps' entries in one stacked
    `extend_apply`, each with the bits of an entry built alone."""

    @pytest.mark.parametrize("d", [3, 4])
    @pytest.mark.parametrize("n", [None, 0, 1, 5])
    def test_entries_have_the_bits_of_one_map_alone(self, rng, d, n):
        ms = catalog_maps(d)
        if n is None:  # one state, no batch axis
            rho = states.random_separable(d, d, 4, rng)
        else:
            rho = states.DensityMatrix(
                [states.random_density(d * d, rng) for _ in range(n)]
                or np.zeros((0, d * d, d * d)), d, d)
        together = criteria.Spectra(rho)
        together.fill(ms)
        U = rho.eig.eigenvectors
        for m in ms:
            alone = criteria.Spectra(rho).map(m)
            assert entry_bits(together.map(m)) == entry_bits(alone)
            # the one-map extend_apply and weights, as built before fill
            X = maps.extend_apply(m, rho.matrix, d)
            assert bits(alone.X) == bits(X)
            assert bits(alone.weights) == bits(criteria._weights(X, U))

    def test_tuple_of_maps_gains_a_leading_axis(self, rng):
        ms = tuple(catalog_maps(3)[:4])
        for rho in (states.random_density(9, rng),
                    np.stack([states.random_density(9, rng)] * 2)):
            got = maps.extend_apply(ms, rho, 3)
            assert got.shape == (4,) + rho.shape
            assert [bits(x) for x in got] == [
                bits(maps.extend_apply(m, rho, 3)) for m in ms]

    @pytest.mark.parametrize("ms,error", [
        ((), "empty tuple"), ((1,), "MatrixMap"),
        ((maps.identity_map(3), maps.identity_map(2)), r"d \[2, 3\]")])
    def test_bad_tuples_raise_typed_errors(self, ms, error):
        with pytest.raises((InvalidParameters, DimensionMismatch),
                           match=error):
            maps.extend_apply(ms, np.eye(9) / 9, 3)

    def test_fill_skips_what_map_would_refuse_or_has(self, rng, monkeypatch):
        rho = states.random_separable(3, 3, 4, rng)
        sp = criteria.Spectra(rho)
        red3, red4 = (maps.reduction_decomposition(d) for d in (3, 4))
        kept = sp.map(red3.lambda1)
        calls = []
        monkeypatch.setattr(criteria, "extend_apply", lambda *args: (
            calls.append(args[0]) or maps.extend_apply(*args)))
        sp.fill([red3, "reduction d=3", None, [1], red4.lambda1,
                 red4.lambda2, red3.lambda1])
        assert calls == [] and sp._maps == {red3.lambda1: kept}
        # only the new maps of d = dB, each once, in one call (one map
        # takes the one-map call)
        sp.fill([red3.lambda1, red3.lambda2, red4.lambda1, red3.lambda2])
        assert calls == [red3.lambda2]
        phi, tr = (maps.parse_map_spec(s) for s in ("phi_dk d=3 k=1",
                                                     "transposition d=3"))
        sp.fill([phi.lambda1, red3.lambda2, tr.lambda1, tr.lambda2])
        assert calls == [red3.lambda2, (phi.lambda1, tr.lambda1, tr.lambda2)]
        assert sp.map(red3.lambda1) is kept
        # what fill skipped raises in map, as before
        with pytest.raises(DimensionMismatch, match="map d=4 != state dB"):
            sp.map(red4.lambda1)
        with pytest.raises(InvalidParameters, match="pass its .map"):
            sp.map(red3)

    def test_family_stacks_keep_their_tables(self, rng):
        stack = states.horodecki_stack([2.5, 3.5, 4.5])
        ms = catalog_maps(3)
        sp = criteria.Spectra(stack)
        sp.fill(ms)
        for m in ms:
            alone = criteria.Spectra(stack).map(m)
            assert bits(sp.map(m).weights) == bits(alone.weights)
            assert bits(sp.map(m).X) == bits(alone.X)

    @pytest.mark.parametrize("d", [3, 4])
    def test_maps_name_what_verdicts_reads(self, rng, d, monkeypatch):
        # after fill(crit.maps), verdicts builds no entry of its own, or
        # it raises what it raises without the fill; the maximally mixed
        # state commutes with every X2, so kind I evaluates with a map
        # lambda2 there
        builds = []
        build = criteria.Spectra._build
        monkeypatch.setattr(criteria.Spectra, "_build", lambda sp, ms: (
            builds.append(ms), build(sp, ms))[1])
        rhos = [states.DensityMatrix(np.eye(d * d) / d ** 2, d, d),
                separable_stack(d, 3, rng)]
        cases = [(1.0, Kind.I), (2.0, Kind.I), (0.5, Kind.II),
                 (1.0, Kind.II), (-0.5, Kind.III), (0.0, Kind.IV),
                 (2.0, Kind.IV)]
        evaluated = set()
        for dec in catalog_decompositions(d):
            for alpha in (1, 2, math.inf):
                for beta, kind in cases:
                    crit = scan.RegionCriterion("c", dec, alpha, beta, kind)
                    for rho in rhos:
                        try:
                            want = crit.verdicts(criteria.Spectra(rho))
                        except Exception as exc:
                            want = exc
                        sp = criteria.Spectra(rho)
                        sp.fill(crit.maps)
                        builds.clear()
                        if isinstance(want, Exception):
                            with pytest.raises(type(want)) as got:
                                crit.verdicts(sp)
                            assert str(got.value) == str(want)
                        else:
                            assert crit.verdicts(sp) == want
                            assert builds == [], (dec.name, alpha, beta)
                            evaluated.add((kind, alpha == math.inf,
                                           dec.lambda2_is_identity))
        # every kind, the limit and both kinds of lambda2 were evaluated
        assert {(Kind.I, False, False), (Kind.I, False, True),
                (Kind.IV, False, False), (Kind.II, True, False)} <= evaluated

    def test_maps_of_a_malformed_criterion_raise_nothing(self, rng):
        # check_state reads every criterion's maps before any criterion
        # runs: a malformed one gives what the operand rule names, or
        # none where that rule raises, and its verdicts raise what they
        # raise without check_state
        rho = states.random_separable(3, 3, 4, rng)
        red = maps.reduction_decomposition(3)
        huge = maps.CPDecomposition(
            maps.MatrixMap(3, 1e153 * np.ones((9, 9))),
            maps.MatrixMap(3, -1e153 * np.ones((9, 9))), "huge")
        # a str half, or halves of two d, is refused when the
        # decomposition is built, so no criterion can hold one
        with pytest.raises(InvalidParameters, match="lambda2 must be a "
                           "MatrixMap, got a str"):
            maps.CPDecomposition(red.lambda1, "identity", "bad")
        with pytest.raises(DimensionMismatch, match="d=3.*d=4"):
            maps.CPDecomposition(red.lambda1, maps.identity_map(4), "mixed")
        # alpha = inf names lambda1 and lambda2, as finite alpha does
        cases = [
            (scan.RegionCriterion("ent", None, 2.0), ()),
            (scan.RegionCriterion("map", red.map, 1.0), ()),
            # L1 - L2's Choi norm overflows: refused when first built
            (scan.RegionCriterion("huge", huge, math.inf, 2.0),
             (huge.lambda1, huge.lambda2)),
            (scan.RegionCriterion("huge", huge, math.inf),
             (huge.lambda1, huge.lambda2)),
        ]
        assert criteria.PPT.maps == ()
        for crit, names in cases:
            assert crit.maps == names
            try:
                want = crit.verdicts(criteria.Spectra(rho))[0]
            except Exception as exc:
                with pytest.raises(type(exc)) as got:
                    scan.check_state(rho, [crit])
                assert str(got.value) == str(exc)
            else:
                assert scan.check_state(fresh(rho), [crit]) == [
                    (crit.label, want)]
