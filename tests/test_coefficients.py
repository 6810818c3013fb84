"""The paper families' stacks are their coefficients: a state holds
(Family, coef, order) and its eigenvalues, its matrix sum_i c_i O_i and
its eigenvectors are built on first read, and the scans' beta = 1
criteria read neither.  The oracles are the sums written out here, eigh
of the partial traces and `linalg.fro`."""

import gc
import math
import weakref

import numpy as np
import pytest

from sepcrit import criteria, linalg, maps, scan, states
from sepcrit.criteria import Kind
from sepcrit.errors import DimensionMismatch, InvalidState

# |marginal from the table - eigh of the partial trace|, entrywise: the
# largest seen on both grids below is 1.1e-16.
MARGINAL_BOUND = 1e-15

# sqrt(sum w**2) against linalg.fro, in units of eps * ||rho||_F: the
# largest seen on both grids below is 1.7.
FRO_ULPS = 4

LAZY = ("matrix", "eig")


def so3_rows(resolution=60):
    for q, row in scan.so3_grid(0.2, resolution):
        yield states.so3_stack(0.2, q, [r for r, _ in row])


def gamma_grid():
    grid = np.arange(2.0, 5.005, 0.01)
    grid[-1] = 5.0
    return grid


def all_stacks():
    return [*so3_rows(), states.horodecki_stack(gamma_grid())]


def so3_matrix(coef):
    """The SO(3) stack's matrix as its builder has always formed it."""
    P = states.so3_projectors()
    return sum(c[:, None, None] * P[J] for J, c in enumerate(coef.T))


def family_sum(stack):
    """sum_i coef[:, i] O_i, summed in the operators' order."""
    family, coef, _ = stack.family
    terms = [c[:, None, None] * O for c, O in zip(coef.T, family.operators)]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


def gathered_eig(stack):
    """The eigendecomposition gathered from the family's basis one state
    at a time, columns order[k] of V: a gather is exact, so the
    builder's bits are these whatever its indexing."""
    family, coef, order = stack.family
    vectors = np.stack([family.vectors[:, o] for o in order])
    return (np.take_along_axis(coef[:, family.block], order, -1), vectors)


def bench_criteria():
    """so3_region's five beta = 1 criteria in the benchmark."""
    bh = maps.breuer_hall_decomposition(d=4)
    bht = maps.breuer_hall_tilde_decomposition(d=4)
    red = maps.reduction_decomposition(4)
    tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
    return [scan.RegionCriterion("bh", bh, 3, 1, Kind.II),
            scan.RegionCriterion("tau", tau, 3, 1, Kind.II),
            scan.RegionCriterion("bht", bht, 3, 1, Kind.II),
            scan.RegionCriterion("red", red, 3, 1, Kind.II),
            scan.RegionCriterion("ent", None, 4)]


def unbuilt(rho):
    return not any(name in vars(rho) for name in LAZY)


def recording_builder(name, calls):
    """states.<name>, appending name to calls on each call."""
    build = getattr(states, name)

    def recording(family):
        calls.append(name)
        return build(family)

    return recording


def recorded(monkeypatch, name):
    """Every stack that scan builds with <name>, in a list."""
    stacks, build = [], getattr(scan, name)

    def recording(*args):
        stacks.append(build(*args))
        return stacks[-1]

    monkeypatch.setattr(scan, name, recording)
    return stacks


class TestCoefficientOnlyPath:
    def test_region_stack_builds_nothing_dense(self, monkeypatch):
        crits = bench_criteria()
        list(scan.so3_region(0.2, crits, 8))  # the tables, built once
        stacks = recorded(monkeypatch, "so3_stack")
        with monkeypatch.context() as m:
            for name in ("hermitian_eig", "min_eigenvalue", "partial_trace",
                         "partial_transpose"):
                m.setattr(linalg, name, None)
            rows = list(scan.so3_region(0.2, crits, 60))
        assert len(rows) == scan.so3_grid_count(0.2, 60)
        assert len(stacks) == math.ceil(len(rows) / scan.STACK_STATES)
        assert all(unbuilt(stack) for stack in stacks)

    def test_table1_rows_build_nothing_dense(self, monkeypatch):
        scan.table1(7.0)  # the family tables
        scan._grid_spectra.cache_clear()
        stacks = recorded(monkeypatch, "horodecki_stack")
        with monkeypatch.context() as m:
            for name in ("hermitian_eig", "min_eigenvalue", "partial_trace",
                         "partial_transpose"):
                m.setattr(linalg, name, None)
            for alpha in (7.0, 6.0, 7.0, 10.0, 13.0, math.inf):
                scan.table1(alpha)
        # the grid's stack and every bisection stack
        assert len(stacks) > 6 and all(unbuilt(s) for s in stacks)
        scan._grid_spectra.cache_clear()

    def test_stack_holds_its_coefficients(self):
        stack = states.so3_stack(0.2, 0.3, [0.1, 0.2])
        assert set(vars(stack)) == {"dA", "dB", "family", "cache",
                                    "eigenvalues", "builders"}
        w = stack.eigenvalues
        assert w.shape == (2, 16) and (np.diff(w, axis=-1) >= 0).all()
        assert stack.shape == (2, 16, 16)
        assert repr(stack) == "DensityMatrix(dA=4, dB=4, shape=(2, 16, 16))"
        assert unbuilt(stack)


class TestBuiltOnFirstRead:
    @pytest.mark.parametrize("family", ["so3", "horodecki"])
    def test_matrix_and_eig_keep_their_bits(self, family):
        if family == "so3":
            stacks = list(so3_rows(20))
            want = [so3_matrix(s.family[1]) for s in stacks]
        else:
            stacks = [states.horodecki_stack(gamma_grid())]
            want = [family_sum(stacks[0])]
        for stack, matrix in zip(stacks, want):
            eig = gathered_eig(stack)
            got = stack.eig
            assert "matrix" not in vars(stack)
            for a, b in zip(got, eig):
                assert np.array_equal(a, b) and not a.flags.writeable
            assert np.array_equal(stack.matrix, matrix)
            assert not stack.matrix.flags.writeable
            assert stack.matrix is stack.matrix and stack.eig is got

    @pytest.mark.parametrize("make", [
        lambda: states.so3_stack(0.2, 0.1, [0.0, 0.3, 0.5]),
        lambda: states.horodecki_stack([2.0, 3.37, 5.0])])
    def test_slice_has_the_stack_bits(self, make):
        stack = make()
        ones = [stack[k] for k in range(3)]
        for k, one in enumerate(ones):
            assert unbuilt(one)
            one.matrix, one.eig
            assert unbuilt(stack)
            assert np.array_equal(one.eigenvalues, stack.eigenvalues[k])
            for a, b in zip(one.family[1:], stack.family[1:]):
                assert np.array_equal(a, b[k])
        for k, one in enumerate(ones):
            assert np.array_equal(one.matrix, stack.matrix[k])
            for a, b in zip(one.eig, stack.eig):
                assert np.array_equal(a, b[k])

    def test_one_state_builders_are_lazy_too(self):
        for rho in (states.so3_state(0.2, 0.3, 0.1),
                    states.horodecki_state(3.5)):
            criteria.entropic_inequality(rho, 2.0)
            criteria.alpha_beta_inequality(
                rho, maps.reduction_decomposition(rho.dB), 3.0, 1.0)
            assert unbuilt(rho)

    def test_readers_build_them(self, monkeypatch):
        # a Spectra builds the matrix and the eigenvectors from the
        # state's (Family, coef, order), once for all its map entries,
        # and leaves the state unbuilt
        built = []
        for name in ("family_matrix", "family_vectors"):
            monkeypatch.setattr(states, name, recording_builder(name, built))
        bh = maps.breuer_hall_decomposition(d=4)
        tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        readers = [
            lambda sp: scan.RegionCriterion("x", bh, 2, 0.5).verdicts(sp),
            # X1 and X2 both read them
            lambda sp: scan.RegionCriterion("x", tau, 2, 0.5).verdicts(sp),
            lambda sp: scan.RegionCriterion("x", tau, 2, 2, Kind.IV
                                            ).verdicts(sp),
        ]
        for read in readers:
            stack = next(so3_rows(8))
            read(criteria.Spectra(stack))
            assert sorted(built) == ["family_matrix", "family_vectors"]
            assert unbuilt(stack)
            built.clear()
        rho = states.so3_state(0.2, 0.3, 0.1)
        criteria.structural_criterion(rho, bh.lambda1)
        assert built == ["family_matrix"] and unbuilt(rho)
        built.clear()
        # the Horodecki partial transposes do not commute: PPT reads it
        stack = states.horodecki_stack([3.0, 4.5])
        criteria.Spectra(stack).ppt
        assert built == ["family_matrix"] and unbuilt(stack)


    def test_state_and_its_spectra_share_one_build(self, monkeypatch):
        # rho.matrix, then a criterion's Spectra on the same state, and a
        # stack's Spectra, then the stack itself, built the sum twice each
        built = []
        for name in ("family_matrix", "family_vectors"):
            monkeypatch.setattr(states, name, recording_builder(name, built))
        rho = states.so3_state(0.2, 0.3, 0.1)
        bh = maps.breuer_hall_decomposition(d=4)
        M = rho.matrix
        criteria.structural_criterion(rho, bh.lambda1)
        assert criteria.Spectra.of(rho).matrix is M
        stack = next(so3_rows(8))
        M = criteria.Spectra(stack).matrix
        assert stack.matrix is M is criteria.Spectra(stack, 1e-12).matrix
        assert built == ["family_matrix"] * 2
        built.clear()
        # and one gather of the eigenvectors: X's overlap with them
        scan.RegionCriterion("x", bh, 2, 0.5).evaluate(rho)
        U = rho.eig.eigenvectors
        scan.RegionCriterion("x", bh, 2, 0.5).evaluate(rho, 1e-12)
        assert rho.eig.eigenvectors is U and built == ["family_vectors"]

    def test_a_scan_calls_no_builder(self, monkeypatch):
        # the beta = 1 scans read tables: no dense matrix, no gather
        crits = bench_criteria()
        list(scan.so3_region(0.2, crits, 8))  # the tables, built once
        scan.table1(7.0)
        built = []
        for name in ("family_matrix", "family_vectors"):
            monkeypatch.setattr(states, name, recording_builder(name, built))
        scan._grid_spectra.cache_clear()
        rows = list(scan.so3_region(0.2, crits, 60))
        assert len(rows) == 1225 and [r.results["red"] for r in rows]
        for alpha in (7.0, math.inf):
            scan.table1(alpha)
        assert built == []
        scan._grid_spectra.cache_clear()


class TestValidationFromCoefficients:
    def test_non_finite_coefficients(self):
        # so3_stack refuses a nan weight by its range check
        # (InvalidParameters); a nan that reaches the coefficients fails
        # their finiteness check, as it passes the trace's
        coef = np.array([[0.2, 0.1 / 3, np.nan, 0.1]])
        with pytest.raises(InvalidState) as exc:
            states._family_stack(coef, states.so3_eigenbasis())
        assert str(exc.value) == "matrix has a non-finite entry (nan or inf)"

    def test_bad_trace(self):
        stack = states.so3_stack(0.2, 0.1, [0.1, 0.3])
        family, coef, _ = stack.family
        with pytest.raises(InvalidState) as dense:
            states.DensityMatrix(so3_matrix(2 * coef), 4, 4)
        with pytest.raises(InvalidState) as lazy:
            states._family_stack(2 * coef, family)
        assert str(lazy.value) == str(dense.value) == "trace (2+0j) != 1"

    def test_negative_coefficient(self):
        # q = -3e-6 puts -1e-6 on P_1's range; the trace stays 1
        p, q, r, s = 0.2 + 3e-6, -3e-6, 0.4, 0.4
        coef = np.array([[p, q / 3, r / 5, s / 7]])
        family = states.so3_eigenbasis()
        with pytest.raises(InvalidState) as dense:
            states.DensityMatrix(so3_matrix(coef), 4, 4)
        with pytest.raises(InvalidState) as lazy:
            states._family_stack(coef, family)
        assert str(lazy.value) == str(dense.value) == \
            "matrix is not positive semidefinite"

    def test_a_stack_is_not_one_state(self):
        stack = states.so3_stack(0.2, 0.3, [0.1, 0.2])
        with pytest.raises(DimensionMismatch) as exc:
            criteria.Spectra.of(stack)
        assert str(exc.value) == ("expected one state, got a stack of "
                                  "shape (2, 16, 16)")
        assert unbuilt(stack) and stack.cache == {}

    def test_immutable(self):
        for rho in (states.so3_state(0.2, 0.3, 0.1),
                    states.DensityMatrix(np.eye(4) / 4, 2, 2)):
            for name in ("matrix", "eig", "dA", "other"):
                with pytest.raises(AttributeError):
                    setattr(rho, name, None)
            with pytest.raises(AttributeError):
                del rho.dA

    def test_every_state_is_validated_by_post_init(self, monkeypatch):
        # the validation hook keeps its name and runs once per state
        calls = []
        validate = states.DensityMatrix.__dict__["__post_init__"]

        def counting(self):
            calls.append(self)
            return validate(self)

        monkeypatch.setattr(states.DensityMatrix, "__post_init__", counting)
        stack = states.horodecki_stack([2.0, 3.0])
        one = stack[1]
        dense = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        assert calls == [stack, one, dense]


class TestSpectraFromCoefficients:
    def test_marginal_table_against_eigh(self):
        for stack in all_stacks():
            sp = criteria.Spectra(stack)
            for keep in "AB":
                marg = linalg.partial_trace(stack.matrix, stack.dA,
                                            stack.dB, keep)
                want = np.linalg.eigvalsh(marg)
                assert np.abs(sp.marginal(keep) - want).max() \
                    <= MARGINAL_BOUND

    def test_marginal_tables_are_multiples_of_one(self):
        # SU(2)-covariant marginals: Tr_B P_J = (2J + 1)/4 1
        E = states.so3_eigenbasis().marginal_tables["A"]
        assert np.abs(E - (2 * np.arange(4)[:, None] + 1) / 4).max() <= 1e-15
        assert states.so3_eigenbasis().marginal_tables["A"] is E
        E = states.horodecki_eigenbasis().marginal_tables["B"]
        assert np.abs(E - np.array([[2 / 3], [1 / 3], [1], [1]])).max() \
            <= 1e-15

    def test_a_family_with_no_table_keeps_the_eigh(self, monkeypatch):
        stack = next(so3_rows(8))
        monkeypatch.setattr(stack.family[0], "marginal_tables",
                            {"A": None})
        marg = linalg.partial_trace(stack.matrix, 4, 4, "A")
        got = criteria.Spectra(stack).marginal("A")
        assert np.array_equal(got, linalg.clamp_psd(
            linalg.hermitian_eig(marg).eigenvalues, 1e-9))

    def test_fro_from_the_spectrum(self):
        eps = np.finfo(float).eps
        for stack in all_stacks():
            sp = criteria.Spectra(stack)
            want = linalg.fro(stack.matrix)
            assert (np.abs(sp.fro - want) <= FRO_ULPS * eps * want).all()
            k = len(stack.eigenvalues) // 2
            assert sp.fro[k] == criteria.Spectra(stack[k]).fro
        # a dense state's is from its spectrum too
        rho = states.random_separable(3, 3, 4, 0)
        got, want = criteria.Spectra(rho).fro, linalg.fro(rho.matrix)
        assert got == linalg.spectral_fro(rho.eigenvalues)
        assert abs(got - want) <= FRO_ULPS * eps * want

    def test_a_dense_state_goes_with_its_last_reference(self):
        # its cache holds its arrays, not the state: no reference cycle
        dec = maps.breuer_hall_decomposition(d=4)
        rho = states.random_separable(4, 4, 4, 0)
        criteria.alpha_beta_inequality(rho, dec, 2.0, 0.5)
        criteria.entropic_inequality(rho, 2.0)
        criteria.ppt_check(rho)
        ref = weakref.ref(rho)
        gc.disable()
        try:
            del rho
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("make", [
        lambda: states.so3_state(0.2, 0.3, 0.1),
        lambda: states.horodecki_state(4.5)])
    def test_a_family_state_goes_with_its_last_reference(self, make):
        # its cache holds arrays and (Family, coef, order), not the state
        rho = make()
        dec = maps.reduction_decomposition(rho.dB)
        criteria.entropic_inequality(rho, 2.0)
        for beta, kind in ((1.0, None), (0.5, None), (2.0, Kind.IV)):
            criteria.alpha_beta_inequality(rho, dec, 2.0, beta, kind)
        criteria.ppt_check(rho)
        criteria.limit_witness(rho, dec.map)
        criteria.structural_criterion(rho, dec.map)
        sp = rho.cache[1e-9]
        assert all("X" in vars(sp.map(m)) for m in (dec.lambda1, dec.map))
        del sp
        ref = weakref.ref(rho)
        gc.disable()
        try:
            del rho
            assert ref() is None
        finally:
            gc.enable()


def clamp_rule(w, tol):
    """Each spectrum of w with its eigenvalues within tol * sqrt(sum w**2)
    of 0 set to 0."""
    band = tol * np.sqrt((w * w).sum(-1, keepdims=True))
    return np.where(np.abs(w) <= band, 0.0, w)


def dense_stack():
    """|00><00|, mixed with 1e-12 of the identity, a random separable
    state and |00><00| itself: spectra with zeros and rounding noise."""
    pure = np.zeros((9, 9), dtype=complex)
    pure[0, 0] = 1
    mixed = (1 - 9e-12) * pure + 1e-12 * np.eye(9)
    return states.DensityMatrix(
        np.array([mixed, states.random_separable(3, 3, 4, 0).matrix, pure]),
        3, 3)


def raw_and_clamped(sp, which):
    """A spectrum of sp before and after its clamp."""
    if which == "rho":
        return sp.eigenvalues, sp.lam
    if which == "X":
        entry = sp.map(maps.reduction_decomposition(sp.dB).lambda1)
        return entry.eig.eigenvalues, entry.mu
    if sp.family is None:
        raw = linalg.hermitian_eig(linalg.partial_trace(
            sp.matrix, sp.dA, sp.dB, "A")).eigenvalues
    else:
        family, coef, _ = sp.family
        raw = np.sort(linalg.combine(coef, family.marginal_tables["A"]),
                      -1)
    return raw, sp.marginal("A")


class TestOneClampRule:
    @pytest.mark.parametrize("member", [None, 1])
    @pytest.mark.parametrize("which", ["rho", "X", "marginal"])
    @pytest.mark.parametrize("make", [
        dense_stack,
        lambda: states.so3_stack(0.2, 0.0, [0.0, 0.3, 0.8]),
        lambda: states.horodecki_stack([2.0, 3.5, 5.0])])
    def test_every_clamp_is_the_rule(self, make, which, member):
        stack = make()
        rho = stack if member is None else stack[member]
        raw, clamped = raw_and_clamped(criteria.Spectra(rho, 1e-9), which)
        assert np.array_equal(clamped, clamp_rule(raw, 1e-9))
        if member is not None:
            whole = raw_and_clamped(criteria.Spectra(stack, 1e-9), which)[1]
            assert np.array_equal(clamped, whole[member])

    def test_the_rule_zeroes_noise(self):
        sp = criteria.Spectra(dense_stack())
        raw, clamped = raw_and_clamped(sp, "X")
        assert ((raw != 0) & (clamped == 0)).any()
        raw, clamped = raw_and_clamped(sp, "rho")
        assert ((raw[0] != 0) & (clamped[0] == 0)).sum() == 8
