import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sepcrit import criteria, linalg, maps, scan, states
from sepcrit.criteria import Kind
from sepcrit.errors import DimensionMismatch, InvalidParameters, InvalidState

from conftest import child_env


class TestSO3Projectors:
    def test_multiplet_dimensions(self):
        P = states.so3_projectors()
        assert [round(np.trace(p).real) for p in P] == [1, 3, 5, 7]

    def test_completeness(self):
        P = states.so3_projectors()
        assert np.linalg.norm(sum(P) - np.eye(16)) <= 1e-10

    def test_orthogonality(self):
        P = states.so3_projectors()
        for J in range(4):
            for Jp in range(4):
                expected = P[J] if J == Jp else 0
                assert np.linalg.norm(P[J] @ P[Jp] - expected) <= 1e-10

    def test_rotation_invariance(self):
        P = states.so3_projectors()
        eye = np.eye(4)
        for S in states.spin_operators(1.5):
            total = linalg.tensor(S, eye) + linalg.tensor(eye, S)
            for p in P:
                assert linalg.commutator_norm(p, total) <= 1e-9


class TestSO3State:
    def test_maximally_mixed_marginals(self, rng):
        for _ in range(50):
            p, q, r, _ = rng.dirichlet(np.ones(4))
            rho = states.so3_state(p, q, r)
            assert np.linalg.norm(rho.marginal("A") - np.eye(4) / 4) <= 1e-10
            assert np.linalg.norm(rho.marginal("B") - np.eye(4) / 4) <= 1e-10

    def test_commutes_with_partial_time_reversal(self, rng):
        tau = maps.modified_transposition(maps.default_breuer_unitary(4))
        for _ in range(20):
            p, q, r, _ = rng.dirichlet(np.ones(4))
            rho = states.so3_state(p, q, r)
            out = maps.extend_apply(tau, rho.matrix, 4)
            assert linalg.commutator_norm(rho.matrix, out) <= 1e-9

    def test_singlet_is_pure(self):
        rho = states.so3_state(1.0, 0.0, 0.0)
        assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) <= 1e-10

    def test_rejects_bad_weights(self):
        with pytest.raises(InvalidParameters):
            states.so3_state(0.9, 0.9, 0.0)
        with pytest.raises(InvalidParameters):
            states.so3_state(-0.1, 0.5, 0.5)
        # a NaN weight raised InvalidState: "matrix has a non-finite entry"
        for pqr in ((0.2, np.nan, 0.1), (np.nan, 0.3, 0.1), (0.2, 0.3, np.nan)):
            with pytest.raises(InvalidParameters, match=r"^\(p,q,r,s\)="):
                states.so3_state(*pqr)


class TestHorodeckiState:
    @pytest.mark.parametrize("gamma", [2.0, 2.5, 3.0, 4.0, 5.0])
    def test_unit_trace(self, gamma):
        rho = states.horodecki_state(gamma)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12

    def test_ppt_boundary_value(self):
        pt = linalg.partial_transpose(states.horodecki_state(4.0).matrix, 3, 3)
        assert abs(linalg.min_eigenvalue(pt)) <= 1e-9

    def test_npt_above_four(self):
        pt = linalg.partial_transpose(states.horodecki_state(4.5).matrix, 3, 3)
        assert linalg.min_eigenvalue(pt) < -1e-6

    def test_ppt_below_four(self):
        pt = linalg.partial_transpose(states.horodecki_state(3.9).matrix, 3, 3)
        assert linalg.min_eigenvalue(pt) >= -1e-12

    def test_boundary_by_bisection(self):
        def npt(gamma):
            pt = linalg.partial_transpose(
                states.horodecki_state(gamma).matrix, 3, 3
            )
            return linalg.min_eigenvalue(pt) < 0

        lo, hi = 2.0, 5.0
        while hi - lo > 1e-8:
            mid = (lo + hi) / 2
            if npt(mid):
                hi = mid
            else:
                lo = mid
        assert abs((lo + hi) / 2 - 4.0) <= 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameters):
            states.horodecki_state(1.9)
        with pytest.raises(InvalidParameters):
            states.horodecki_state(5.1)


class TestRandomEnsembles:
    def test_random_density_unit_trace_psd(self):
        rho = states.random_density(5, seed=3)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert linalg.min_eigenvalue(rho) >= 0

    def test_random_density_deterministic(self):
        a = states.random_density(4, seed=11)
        b = states.random_density(4, seed=11)
        assert np.array_equal(a, b)

    def test_separable_product_purity(self):
        rho = states.random_separable(3, 3, k=1, seed=5)
        pa = np.trace(np.linalg.matrix_power(rho.marginal("A"), 2)).real
        pb = np.trace(np.linalg.matrix_power(rho.marginal("B"), 2)).real
        purity = np.trace(rho.matrix @ rho.matrix).real
        assert abs(purity - pa * pb) <= 1e-10

    # The first 16 hex digits of the SHA-256 of each matrix's bytes, at
    # seeds 0, 1 and 7: any bit of the random stream, or of the arithmetic
    # that turns it into a state, that moves changes a digest.
    SEPARABLE_DIGESTS = {
        (3, 3, 4): ["ae2bc3e379312d57", "df6b02ed923d8cb5",
                    "4486d59a14b22f6d"],
        (4, 4, 4): ["d1798cd6e964f561", "54c780f991b149fc",
                    "542e91d4aac9c0af"],
        (2, 5, 3): ["41e5ff44ef1b1102", "caf937a64365d535",
                    "92a99b328a5c7204"],
        (3, 3, 1): ["46c3330184109c7d", "5a4debc539c4bad3",
                    "5240ed549754c539"],
        (2, 9, 2): ["9c653b849574dde3", "354571dc5f217798",
                    "d8a6fce957f90dab"],
    }
    DENSITY_DIGESTS = {  # at seeds 0 and 5
        2: ["4dba7fe2e04192a7", "74437480e5cf07a7"],
        3: ["133e6a3eaad6f21b", "a8f98ad5d173085d"],
        4: ["880140f92b9f1429", "c204f44e9170005c"],
        9: ["fdb435966007ed0f", "6a64365be191600d"],
    }

    @staticmethod
    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()[:16]

    @pytest.mark.parametrize("shape", list(SEPARABLE_DIGESTS))
    def test_random_separable_stream_is_pinned(self, shape):
        assert [self.digest(states.random_separable(*shape, seed=s).matrix)
                for s in (0, 1, 7)] == self.SEPARABLE_DIGESTS[shape]

    @pytest.mark.parametrize("d", list(DENSITY_DIGESTS))
    def test_random_density_stream_is_pinned(self, d):
        assert [self.digest(states.random_density(d, seed=s))
                for s in (0, 5)] == self.DENSITY_DIGESTS[d]

    def test_states_drawn_in_a_row_are_pinned(self):
        # one generator, as the soundness bench draws its 3x3 and 4x4 states
        rng = np.random.default_rng([5, 2])
        got = [self.digest(states.random_separable(*dims, 4, rng).matrix)
               for dims in ((3, 3), (4, 4), (3, 3))]
        got.append(self.digest(states.random_density(3, rng)))
        assert got == ["899d872e76b98616", "9f27a6963742c612",
                       "4a0125cae8513ad3", "663d4c18a2db8780"]

    def test_separable_is_ppt(self, rng):
        for _ in range(20):
            rho = states.random_separable(3, 3, 4, rng)
            pt = linalg.partial_transpose(rho.matrix, 3, 3)
            assert linalg.min_eigenvalue(pt) >= -1e-9

    def test_separable_survives_positive_maps(self, rng):
        decs = [maps.reduction_decomposition(3),
                maps.phi_dk_decomposition(3, 1),
                maps.theta_decomposition(2, [1, 1, 1])]
        for _ in range(10):
            rho = states.random_separable(3, 3, 4, rng)
            for dec in decs:
                out = maps.extend_apply(dec.map, rho.matrix, 3)
                assert linalg.min_eigenvalue(out) >= -1e-9


class TestDensityMatrixInvariants:
    def test_keeps_read_only_eigendecomposition(self, rng):
        rho = states.random_separable(3, 3, 4, rng)
        w, V = rho.eig
        assert np.allclose((V * w) @ V.conj().T, rho.matrix, atol=1e-14)
        assert not (w.flags.writeable or V.flags.writeable
                    or rho.matrix.flags.writeable)

    def test_compares_and_hashes_by_identity(self):
        # the generated == compared the ndarray field and raised, and
        # the generated __hash__ raised on the dict field
        a = states.random_separable(3, 3, 4, 0)
        b = states.random_separable(3, 3, 4, 0)
        assert np.array_equal(a.matrix, b.matrix)
        assert a == a and a != b
        assert a in [a] and b not in [a]
        assert len({a, b, a}) == 2
        stack = states.horodecki_stack([2.0, 3.0])
        assert stack[0] != stack[0]

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidState):
            states.DensityMatrix(np.eye(4), 2, 2)

    def test_rejects_non_hermitian(self):
        M = np.eye(4, dtype=complex) / 4
        M[0, 1] = 0.5
        with pytest.raises(InvalidState):
            states.DensityMatrix(M, 2, 2)

    def test_rejects_non_finite_entries(self):
        # a nan passed the trace check (abs(nan - 1) > 1e-10 is False)
        # and was then reported as not Hermitian
        stack = np.stack([np.eye(4, dtype=complex) / 4] * 3)
        for value, (k, i, j) in ((np.nan, (0, 0, 0)), (np.inf, (2, 0, 1)),
                                 (-np.inf, (1, 3, 3))):
            M = stack.copy()
            M[k, i, j] = value
            for matrix in (M, M[k]):
                with pytest.raises(InvalidState, match="non-finite entry"):
                    states.DensityMatrix(matrix, 2, 2)

    def test_rejects_negative(self):
        with pytest.raises(InvalidState):
            states.DensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]), 2, 2)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidState):
            states.DensityMatrix(np.eye(4) / 4, 2, 3)

    @pytest.mark.parametrize("dims", [
        (-2, -2), (2.0, 2.0), (True, 4), (4, True), (0, 4), (None, 4),
        ("2", 2)])
    def test_rejects_dimensions_that_are_not_positive_integers(self, dims):
        # these constructed, and ppt_check then raised a bare ValueError
        # or TypeError
        with pytest.raises(InvalidState, match="must be positive integers"):
            states.DensityMatrix(np.eye(4) / 4, *dims)
        family = states.so3_stack(0.2, 0.3, [0.1]).family
        with pytest.raises(InvalidState, match="must be positive integers"):
            states.DensityMatrix(None, *dims, family=family)

    def test_numpy_integer_dimensions(self):
        rho = states.DensityMatrix(np.eye(4) / 4, np.int64(2), np.int32(2))
        assert criteria.ppt_check(rho) == 0.25


class TestDensityMatrixStacks:
    def test_stack_equals_one_by_one(self, rng, monkeypatch):
        mats = [states.random_separable(3, 3, 4, rng).matrix
                for _ in range(5)]
        stacked = states.DensityMatrix(mats, 3, 3)
        # rho[k] holds the stack's slices: indexing runs no eigensolve
        monkeypatch.setattr(linalg, "hermitian_eig", None)
        stacked = [stacked[k] for k in range(len(mats))]
        monkeypatch.undo()
        for M, rho in zip(mats, stacked):
            one = states.DensityMatrix(M.copy(), 3, 3)
            assert (rho.dA, rho.dB, rho.cache) == (3, 3, {})
            assert np.array_equal(rho.matrix, one.matrix)
            for got, want in zip(rho.eig, one.eig):
                assert np.array_equal(got, want)
                assert not got.flags.writeable
            assert not rho.matrix.flags.writeable

    def test_families_are_the_one_state_case(self):
        rs = [0.0, 0.1, 0.35]
        gammas = [2.0, 3.3, 5.0]
        for stack, ones in [
                (states.so3_stack(0.2, 0.3, rs),
                 [states.so3_state(0.2, 0.3, r) for r in rs]),
                (states.horodecki_stack(gammas),
                 [states.horodecki_state(g) for g in gammas])]:
            for k, one in enumerate(ones):
                rho = stack[k]
                assert np.array_equal(rho.matrix, one.matrix)
                # [k] keeps the algebra's eigendecomposition, bit for bit
                for got, whole, want in zip(rho.eig, stack.eig, one.eig):
                    assert np.array_equal(got, whole[k])
                    assert np.array_equal(got, want)
                    assert not got.flags.writeable

    def test_one_state_paths_reject_a_stack(self):
        stack = states.so3_stack(0.2, 0.3, [0.1, 0.2])
        dec = maps.reduction_decomposition(4)
        for call in (lambda: criteria.Spectra.of(stack),
                     lambda: criteria.alpha_beta_inequality(stack, dec, 2, 1),
                     lambda: scan.check_state(stack, [], include_ppt=True)):
            with pytest.raises(DimensionMismatch):
                call()
        assert stack.cache == {}

    def test_one_state_is_not_a_stack(self):
        for rho in (states.so3_state(0.2, 0.3, 0.1),
                    states.DensityMatrix(np.eye(4) / 4, 2, 2)):
            with pytest.raises(DimensionMismatch, match="stack of states"):
                rho[0]

    def test_rejects_more_than_three_axes(self):
        with pytest.raises(DimensionMismatch):
            states.DensityMatrix(np.full((2, 2, 4, 4), np.eye(4) / 4), 2, 2)

    def test_eig_is_keyword_only(self):
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        with pytest.raises(TypeError):
            states.DensityMatrix(rho.matrix, 2, 2, rho.eig)
        again = states.DensityMatrix(rho.matrix, 2, 2, eig=rho.eig)
        assert again.eig is rho.eig

    @pytest.mark.parametrize("bad", [
        np.eye(4) / 2,                                  # trace 2
        np.diag([0.7, 0.5, -0.1, -0.1]),                # negative eigenvalue
        np.eye(4) / 4 + np.diag([0.5, 0, 0], 1),       # not Hermitian
    ])
    def test_stack_raises_like_one_matrix(self, bad):
        with pytest.raises(InvalidState) as one:
            states.DensityMatrix(bad, 2, 2)
        stack = [np.eye(4) / 4, bad, np.eye(4) / 4]
        with pytest.raises(InvalidState) as stacked:
            states.DensityMatrix(stack, 2, 2)
        assert str(stacked.value) == str(one.value)

    def test_rejects_bad_family_member(self):
        with pytest.raises(InvalidParameters):
            states.so3_stack(0.2, 0.3, [0.1, 0.6])
        with pytest.raises(InvalidParameters):
            states.horodecki_stack([3.0, 5.5])
        with pytest.raises(InvalidParameters, match="nan"):
            states.so3_stack(0.2, 0.3, [0.1, np.nan])
        with pytest.raises(InvalidParameters, match="nan"):
            states.horodecki_stack([3.0, np.nan])

    @pytest.mark.parametrize("call", [
        lambda: states.so3_stack(0.2, [[0.1, 0.2]], [[0.1], [0.2]]),
        lambda: states.so3_stack([[0.2]], 0.1, 0.1),
        lambda: states.so3_stack(0.2, [0.1, 0.2], [0.1, 0.2, 0.3]),
        lambda: states.horodecki_stack([[2.5, 3.0]]),
        lambda: states.horodecki_stack([[2.5], [3.0]]),
    ])
    def test_family_parameters_are_1d(self, call):
        # a 2-D grid (or lengths that do not broadcast) is a typed error,
        # not a numpy broadcast error
        with pytest.raises(InvalidParameters):
            call()

    def test_family_scalar_and_length_one_broadcast(self):
        rho = states.so3_stack(0.2, [0.3], [0.1, 0.2])
        assert rho.matrix.shape == (2, 16, 16)
        assert np.array_equal(rho[1].matrix,
                              states.so3_stack(0.2, 0.3, 0.2)[0].matrix)


def so3_rows(p=0.2, resolution=60):
    """The so3_region grid's q-rows as family stacks."""
    return [states.so3_stack(p, q, [r for r, _ in row])
            for q, row in scan.so3_grid(p, resolution)]


def gamma_grid():
    grid = np.arange(2.0, 5.005, 0.01)
    grid[-1] = 5.0
    return grid


# Entrywise bound for the analytic eigendecomposition against eigvalsh
# and for the residual ||rho V - V w||_F per state; measured at most
# 3.1e-16 and 5.0e-16 on the stacks below.
ANALYTIC_BOUND = 2e-15


class TestFamilyEigendecomposition:
    """The paper families' eigendecomposition comes from their algebra;
    eigh is the oracle."""

    def assert_matches_eigh(self, stack):
        w, V = stack.eig
        M = stack.matrix
        n = M.shape[-1]
        assert np.abs(w - np.linalg.eigvalsh(M)).max() <= ANALYTIC_BOUND
        assert (np.diff(w, axis=-1) >= 0).all()
        residual = np.linalg.norm(M @ V - V * w[:, None, :], axis=(-2, -1))
        assert residual.max() <= ANALYTIC_BOUND
        assert np.abs(linalg.dag(V) @ V - np.eye(n)).max() <= ANALYTIC_BOUND
        assert not (w.flags.writeable or V.flags.writeable)

    def test_so3_rows(self):
        for stack in so3_rows():
            self.assert_matches_eigh(stack)

    def test_gamma_grid(self):
        self.assert_matches_eigh(states.horodecki_stack(gamma_grid()))

    def test_ties(self):
        # gamma = 2.5: gamma/21 = (5-gamma)/21, six times
        stack = states.horodecki_stack([2.5])
        self.assert_matches_eigh(stack)
        assert np.array_equal(stack.eig.eigenvalues[0, 2:8],
                              np.full(6, 2.5 / 21))
        # (p, q, r) = (1, 3, 5)/16 is the maximally mixed state
        stack = states.so3_stack(1 / 16, 3 / 16, 5 / 16)
        self.assert_matches_eigh(stack)
        assert np.array_equal(stack.eig.eigenvalues, np.full((1, 16), 1 / 16))

    def test_verdicts_equal_eigh_validated_copies(self):
        def verdicts(crits, stack, tol=linalg.DEFAULT_TOL):
            sp = criteria.Spectra(stack, tol)
            return [[v.violated for v in c.verdicts(sp)] for c in crits]

        def eigh_copy(stack):
            return states.DensityMatrix(stack.matrix, stack.dA, stack.dB)

        crits = [scan.PPT(),
                 scan.RegionCriterion("bh", maps.breuer_hall_decomposition(
                     d=4), 3, 1, Kind.II),
                 scan.RegionCriterion("tau", maps.tau_u_decomposition(
                     maps.default_breuer_unitary(4)), 3, 1, Kind.II),
                 scan.RegionCriterion(
                     "bht", maps.breuer_hall_tilde_decomposition(d=4), 3, 1,
                     Kind.II),
                 scan.RegionCriterion("red", maps.reduction_decomposition(4),
                                      3, 1, Kind.II),
                 scan.RegionCriterion("ent", None, 4)]
        for stack in so3_rows():
            assert verdicts(crits, stack) == verdicts(crits, eigh_copy(stack))
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        tol = scan.BISECTION_CRITERION_TOL
        crits = [scan.RegionCriterion("gamma", dec, a, 1.0, None)
                 for a in (6.0, 7.0, 10.0, 13.0, math.inf)]
        for gammas in (gamma_grid(), [2.5]):
            stack = states.horodecki_stack(gammas)
            assert verdicts(crits, stack, tol) == \
                verdicts(crits, eigh_copy(stack), tol)

    def test_eigenbases_are_checked_and_read_only(self):
        for family in (states.so3_eigenbasis(), states.horodecki_eigenbasis()):
            assert not (family.vectors.flags.writeable or
                        family.block.flags.writeable)
        assert np.bincount(states.so3_eigenbasis().block).tolist() == \
            [1, 3, 5, 7]
        assert np.bincount(states.horodecki_eigenbasis().block).tolist() == \
            [2, 1, 3, 3]

    def test_check_rejects_a_wrong_basis(self):
        P = states.so3_projectors()
        V, E = states.joint_eigenbasis(P)
        assert np.array_equal(V, states.so3_eigenbasis().vectors)
        assert not (V.flags.writeable or E.flags.writeable)
        bump = np.zeros((16, 16))
        bump[0, 1] = 1e-13
        wrong = [
            [2 * p for p in P],                   # not projectors
            [P[0] + 1e-13, *P[1:]],               # an error above the bound
            [P[0] + bump + bump.T, *P[1:]],       # off-diagonal, above it
            [P[0], P[1] + bump, *P[2:]],          # not Hermitian
            P[:3],                                # do not resolve 1
        ]
        for ops in wrong:
            with pytest.raises(InvalidState):
                states.Family(ops, 4, 4)
        assert states.joint_eigenbasis([P[0] + 1e-13, *P[1:]]) is None
        # the partial transposes of the 3x3 family do not commute
        fam = states.horodecki_eigenbasis()
        G = linalg.partial_transpose(np.stack(fam.operators), 3, 3)
        assert states.joint_eigenbasis(G) is None

    def test_built_on_first_use(self):
        code = ("import sepcrit.states as s; "
                "print(s.so3_eigenbasis.cache_info().currsize, "
                "s.horodecki_eigenbasis.cache_info().currsize); "
                "s.horodecki_state(3.0); "
                "print(s.horodecki_eigenbasis.cache_info().currsize)")
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=60, check=True,
                             env=child_env(src))
        assert out.stdout.split() == ["0", "0", "1"]


def _bits(out):
    """The bits of a state (its family coefficients, else its matrix,
    and its spectrum), of so3_region rows (q, r, s and the PPT flag,
    with their types) or of so3_grid rows."""
    if isinstance(out, states.DensityMatrix):
        held = out.matrix if out.family is None else out.family[1]
        return held.tobytes(), out.eigenvalues.tobytes()
    if out and isinstance(out[0], scan.ScanRow):
        return [(type(x), float(x).hex()) for row in out for x in row[:4]]
    return repr(out)  # so3_grid's rows: a float's repr keeps its bits


F32 = float(np.float32(0.2))


@pytest.mark.parametrize("call, want", [
    # real numbers of any numpy width are computed with in float64
    (lambda: states.so3_state(np.float32(0.2), 0.3, 0.1),
     lambda: states.so3_state(F32, 0.3, 0.1)),
    (lambda: states.so3_state(np.float64(0.2), np.int64(0), np.float16(0.5)),
     lambda: states.so3_state(0.2, 0.0, 0.5)),
    (lambda: states.so3_stack(0, np.array([False, True]), np.int8(0)),
     lambda: states.so3_stack(0.0, [0.0, 1.0], 0.0)),
    (lambda: list(scan.so3_region(np.float32(0.2), [], 4)),
     lambda: list(scan.so3_region(F32, [], 4))),
    (lambda: list(scan.so3_region(np.float32(0.5), [], 4)),
     lambda: list(scan.so3_region(float(np.float32(0.5)), [], 4))),
    (lambda: list(scan.so3_grid(np.float32(0.2), 4)),
     lambda: list(scan.so3_grid(F32, 4))),
    (lambda: states.horodecki_state(np.float32(3.5)),
     lambda: states.horodecki_state(3.5)),
    (lambda: states.horodecki_state(3),
     lambda: states.horodecki_state(3.0)),
    # anything else is refused, naming the argument
    (lambda: states.so3_state(0.2 + 0.1j, 0.3, 0.1), "p"),
    (lambda: states.so3_state(0.2, None, 0.1), "q"),
    (lambda: states.so3_stack(["0.2"], [0.3], [0.1]), "p"),
    (lambda: states.so3_stack([0.2], [0.3], [0.1, "0.1"]), "r"),
    (lambda: states.so3_stack([0.2, [0.1]], 0.3, 0.1), "p"),
    (lambda: scan.so3_grid_count(None, 4), "p"),
    (lambda: scan.so3_grid_count("0.2", 4), "p"),
    (lambda: states.horodecki_state("3"), "gamma"),
    (lambda: states.horodecki_state(3 + 0j), "gamma"),
    (lambda: states.horodecki_stack([3, [4]]), "gamma"),
    (lambda: maps.theta_decomposition(2 + 0j, [1, 1, 1]), "a"),
    (lambda: maps.theta_decomposition("2", [1, 1, 1]), "a"),
    (lambda: maps.theta_decomposition(None, [1, 1, 1]), "a"),
    (lambda: maps.theta_decomposition(2, [1, 1, 1 + 0j]), "c"),
    (lambda: maps.theta_decomposition(2, ["1", "1", "1"]), "c"),
    (lambda: maps.theta_positivity(2, None), "c"),
    (lambda: maps.kossakowski_decomposition("abcd"), "a"),
    (lambda: maps.kossakowski_decomposition(np.zeros(4) + 0j), "a"),
    (lambda: states.DensityMatrix("x", 1, 1), "matrix"),
    (lambda: states.DensityMatrix([[1, None], [0, 0]], 1, 2), "matrix"),
    (lambda: states.DensityMatrix([[1], [0, 0]], 1, 2), "matrix"),
    (lambda: maps.tau_u_decomposition("x"), "U"),
    (lambda: maps.breuer_hall_decomposition([["a"]]), "U"),
    (lambda: maps.MatrixMap(1, [[object()]]), "choi")])
def test_numeric_parameters_are_real_numbers(call, want):
    if isinstance(want, str):
        with pytest.raises(InvalidParameters, match=f"^{want}="):
            call()
    else:
        assert _bits(call()) == _bits(want())
