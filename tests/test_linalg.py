import numpy as np
import pytest

from sepcrit import linalg, maps, states
from sepcrit.errors import (
    DimensionMismatch,
    InvalidState,
    NonHermitian,
    NotPSD,
    SingularNegativePower,
)

from conftest import PAULI_X, PAULI_Z, bell_state, random_hermitian, random_psd


class TestHermitianEig:
    def test_identity(self):
        w, V = linalg.hermitian_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])

    def test_diagonal(self):
        w, _ = linalg.hermitian_eig(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1, 2])

    def test_pauli_x(self):
        w, _ = linalg.hermitian_eig(PAULI_X)
        assert np.allclose(w, [-1, 1])

    def test_rejects_non_hermitian(self):
        # eigensolves take the Hermitian part unchecked; a state is
        # checked at validation and a map at construction
        A = np.array([[0, 1], [0, 0]], dtype=complex)
        assert not linalg.is_hermitian(A)
        assert linalg.is_hermitian(A + A.T)
        # a norm that overflows passed as inf <= inf, with a numpy warning
        big = 1e200 * A
        for B, ok in ((big, False), (big + big.T, True)):
            assert linalg.is_hermitian(B) is ok
            assert linalg.is_hermitian(np.stack([np.eye(2), B])) is ok
        with pytest.raises(InvalidState, match="not Hermitian"):
            states.DensityMatrix(np.eye(2) / 2 + A, 2, 1)
        with pytest.raises(NonHermitian, match="does not preserve Herm"):
            maps.MatrixMap(2, np.kron(A, np.eye(2)))

    @pytest.mark.parametrize("d", [4, 9, 16])
    def test_residual_and_unitarity(self, d, rng):
        for _ in range(50):
            A = random_hermitian(d, rng)
            w, V = linalg.hermitian_eig(A)
            bound = 1e-10 * max(1.0, np.linalg.norm(A))
            assert np.linalg.norm(A @ V - V @ np.diag(w)) <= bound
            assert np.linalg.norm(V.conj().T @ V - np.eye(d)) <= 1e-10
            assert np.all(np.diff(w) >= 0)


class TestPsdPower:
    def test_identity_sqrt(self):
        assert np.allclose(linalg.psd_power(np.eye(4), 0.5), np.eye(4))

    def test_diagonal_sqrt(self):
        out = linalg.psd_power(np.diag([4.0, 9.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_square_of_sqrt(self, rng):
        A = random_psd(5, rng)
        root = linalg.psd_power(A, 0.5)
        assert np.linalg.norm(root @ root - A) <= 1e-8 * np.linalg.norm(A)

    def test_power_one_reproduces(self, rng):
        A = random_psd(4, rng)
        assert np.linalg.norm(linalg.psd_power(A, 1.0) - A) <= 1e-10

    def test_semigroup(self, rng):
        A = random_psd(4, rng)
        A /= np.trace(A).real
        for s, t in [(0.3, 0.7), (1.5, 0.2), (2.0, 0.0), (0.9, 1.1)]:
            left = linalg.psd_power(A, s) @ linalg.psd_power(A, t)
            assert np.linalg.norm(left - linalg.psd_power(A, s + t)) <= 1e-8

    def test_integer_consistency(self, rng):
        A = random_psd(4, rng)
        assert np.linalg.norm(linalg.psd_power(A, 3) - A @ A @ A) <= \
            1e-9 * np.linalg.norm(A) ** 3
        assert np.allclose(linalg.matrix_power_psd(A, 3), A @ A @ A)

    def test_clamps_singular(self):
        A = np.diag([1.0, 0.0])
        out = linalg.psd_power(A, 0.5)
        assert np.allclose(out, A)

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            linalg.psd_power(np.diag([1.0, -1.0]), 0.5)

    def test_integer_power_checks_psd(self):
        # Integer powers take the same clamp rule as fractional ones.
        with pytest.raises(NotPSD):
            linalg.matrix_power_psd(np.diag([1.0, -1.0]), 2)

    def test_rejects_singular_negative_power(self):
        with pytest.raises(SingularNegativePower):
            linalg.psd_power(np.diag([1.0, 0.0]), -0.5)


class TestZeroPower:
    def test_powered_zero_is_support_indicator(self):
        w = np.array([0.0, 0.25, 0.75])
        assert np.array_equal(linalg.powered(w, 0), [0.0, 1.0, 1.0])

    def test_psd_power_zero_is_support_projector(self):
        psi = np.array([1.0, 1.0j]) / np.sqrt(2)
        P = np.outer(psi, psi.conj())
        assert np.allclose(linalg.psd_power(P, 0), P, atol=1e-14)
        assert np.allclose(linalg.psd_power(np.eye(3) / 3, 0), np.eye(3))


class TestStacks:
    """Stackable functions give, matrix by matrix, the bits of one call
    per matrix."""

    def test_matches_one_call_per_matrix(self, rng):
        A = np.array([random_hermitian(6, rng) for _ in range(4)])
        P = np.array([random_psd(6, rng) for _ in range(4)])
        w, V = linalg.hermitian_eig(A)
        mins = linalg.min_eigenvalue(A)
        norms = linalg.fro(A)
        clamped = linalg.clamp_psd(linalg.hermitian_eig(P).eigenvalues)
        for k in range(4):
            one = linalg.hermitian_eig(A[k])
            assert np.array_equal(w[k], one.eigenvalues)
            assert np.array_equal(V[k], one.eigenvectors)
            assert mins[k] == linalg.min_eigenvalue(A[k])
            assert norms[k] == linalg.fro(A[k]) == np.linalg.norm(A[k])
            assert np.array_equal(clamped[k], linalg.clamp_psd(
                linalg.hermitian_eig(P[k]).eigenvalues))
            for keep in "AB":
                assert np.array_equal(
                    linalg.partial_trace(A, 2, 3, keep)[k],
                    linalg.partial_trace(A[k], 2, 3, keep))
            assert np.array_equal(linalg.partial_transpose(A, 3, 2)[k],
                                  linalg.partial_transpose(A[k], 3, 2))
            assert np.array_equal(linalg.psd_power(P, 0.5)[k],
                                  linalg.psd_power(P[k], 0.5))

    def test_one_bad_member_raises(self, rng):
        A = np.array([random_hermitian(4, rng) for _ in range(3)])
        P = np.array([random_psd(4, rng) for _ in range(3)])
        P /= np.trace(P, axis1=1, axis2=2)[:, None, None]
        assert linalg.is_hermitian(A) and linalg.is_hermitian(P)
        states.DensityMatrix(P.copy(), 2, 2)
        A[1, 0, 1] += 1.0
        P[1, 0, 1] += 1.0
        assert not linalg.is_hermitian(A)
        assert not linalg.is_hermitian(P)
        with pytest.raises(InvalidState, match="not Hermitian"):
            states.DensityMatrix(P, 2, 2)
        P = np.array([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
        with pytest.raises(NotPSD):
            linalg.clamp_psd(linalg.hermitian_eig(P).eigenvalues)


class TestTensor:
    @pytest.mark.parametrize("shapes", [
        [(3, 3), (3, 3)], [(4, 4), (4, 4)], [(2, 3), (4, 5)],
        [(1, 4), (3, 1)], [(2, 2), (3, 1), (1, 2)]])
    def test_kron_bits(self, shapes, rng):
        ops = [rng.standard_normal(s) + 1j * rng.standard_normal(s)
               for s in shapes]
        want = ops[0]
        for op in ops[1:]:
            want = np.kron(want, op)
        got = linalg.tensor(*ops)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_real_operands_are_complex(self):
        got = linalg.tensor(np.eye(2), [[0, 1], [1, 0]])
        assert got.dtype == complex
        assert np.array_equal(got, np.kron(np.eye(2), [[0, 1], [1, 0]]))

    def test_stacks_pair_one_by_one(self, rng):
        a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
                for s in ((5, 2, 3), (5, 4, 2)))
        got = linalg.tensor(a, b)
        assert got.shape == (5, 8, 6)
        for k in range(5):
            assert got[k].tobytes() == np.kron(a[k], b[k]).tobytes()


class TestVecdot:
    def test_one_vector_has_np_vecdot_bits(self, rng):
        # ndarray.dot on one pair, np.vecdot on a stack: the same bits,
        # for contiguous operands and for the strided real part of a
        # complex array (BLAS sums strided operands in another order, so
        # each stack keeps its operands' layout)
        for n in [1, 2, 3, 9, 16, 17, 64, 81]:
            for _ in range(50):
                a = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
                z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                for b, bs in ((z.imag.copy(), np.stack([z.imag, z.imag])),
                              (z.real, np.stack([z, z]).real)):
                    got = linalg.vecdot(a, b)
                    want = np.vecdot(a, b)
                    assert np.float64(got).view(np.uint64) == \
                        np.float64(want).view(np.uint64)
                    stack = linalg.vecdot(np.stack([a, a]), bs)
                    assert stack.tobytes() == np.stack([want, want]).tobytes()


class TestGatherLast:
    @staticmethod
    def _same(got, want):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_one_state(self, rng):
        x = rng.standard_normal(16)
        idx = np.argsort(x)
        self._same(linalg.gather_last(x, idx), np.take_along_axis(x, idx, -1))

    def test_stack(self, rng):
        # complex entries too, as a stack of weights or vectors may hold
        z = rng.standard_normal((2, 5, 9))
        for x in (rng.standard_normal((256, 16)), z[0] + 1j * z[1]):
            idx = np.argsort(x.real, -1)
            self._same(linalg.gather_last(x, idx),
                       np.take_along_axis(x, idx, -1))

    def test_empty_stack(self):
        x, idx = np.empty((0, 16)), np.empty((0, 16), dtype=np.intp)
        self._same(linalg.gather_last(x, idx), np.take_along_axis(x, idx, -1))

    def test_index_that_is_not_a_permutation(self, rng):
        x = rng.standard_normal((7, 9))
        idx = rng.integers(0, 9, (7, 9))
        assert any(len(set(row)) < 9 for row in idx.tolist())
        self._same(linalg.gather_last(x, idx), np.take_along_axis(x, idx, -1))
        self._same(linalg.gather_last(x[3], idx[3]),
                   np.take_along_axis(x[3], idx[3], -1))

    def test_index_narrower_than_the_last_axis(self, rng):
        # `criteria._limit`'s groups: a run of n columns from j
        x = rng.standard_normal((11, 16))
        j = rng.integers(0, 13, 11)
        for n in (1, 2, 4):
            idx = j[:, None] + np.arange(n)
            got = linalg.gather_last(x, idx)
            self._same(got, np.take_along_axis(x, idx, -1))
            self._same(got.sum(-1), np.take_along_axis(x, idx, -1).sum(-1))


class TestPartialTrace:
    def test_product_factorization(self, rng):
        a = random_psd(3, rng)
        b = random_psd(3, rng)
        out = linalg.partial_trace(linalg.tensor(a, b), 3, 3, "A")
        assert np.allclose(out, a * np.trace(b))
        out_b = linalg.partial_trace(linalg.tensor(a, b), 3, 3, "B")
        assert np.allclose(out_b, b * np.trace(a))

    def test_max_entangled_marginal(self):
        out = linalg.partial_trace(bell_state(2), 2, 2, "B")
        assert np.allclose(out, np.eye(2) / 2)

    def test_trace_consistency(self, rng):
        rho = random_psd(9, rng)
        out = linalg.partial_trace(rho, 3, 3, "A")
        assert abs(np.trace(out) - np.trace(rho)) <= 1e-12 * abs(np.trace(rho))

    def test_linearity(self, rng):
        x, y = random_psd(6, rng), random_psd(6, rng)
        lhs = linalg.partial_trace(0.3 * x + 0.7 * y, 2, 3)
        rhs = 0.3 * linalg.partial_trace(x, 2, 3) + \
            0.7 * linalg.partial_trace(y, 2, 3)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.partial_trace(np.eye(5), 2, 3)


class TestPartialTranspose:
    def test_product_stays_psd(self, rng):
        a = random_psd(2, rng)
        b = random_psd(3, rng)
        out = linalg.partial_transpose(linalg.tensor(a, b), 2, 3)
        assert np.allclose(out, linalg.tensor(a, b.T))
        assert linalg.min_eigenvalue(out) >= -1e-12

    def test_bell_min_eigenvalue(self):
        out = linalg.partial_transpose(bell_state(2), 2, 2)
        assert abs(linalg.min_eigenvalue(out) + 0.5) <= 1e-12

    def test_involution_exact(self, rng):
        rho = random_psd(12, rng)
        twice = linalg.partial_transpose(
            linalg.partial_transpose(rho, 3, 4), 3, 4
        )
        assert np.array_equal(twice, rho)


class TestSingularValues:
    def test_identity(self):
        assert np.allclose(linalg.sorted_singular_values(np.eye(4)), 1.0)

    def test_moduli_sorted(self):
        out = linalg.sorted_singular_values(np.diag([3.0, -2.0]))
        assert np.allclose(out, [2.0, 3.0])

    def test_hermitian_cross_check(self, rng):
        X = random_hermitian(6, rng)
        w = linalg.hermitian_eig(X).eigenvalues
        assert np.allclose(
            linalg.sorted_singular_values(X), np.sort(np.abs(w))
        )

    def test_matches_abs_x(self, rng):
        X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        absX = linalg.psd_power(X.conj().T @ X, 0.5)
        assert np.allclose(
            linalg.sorted_singular_values(X),
            linalg.hermitian_eig(absX).eigenvalues,
        )


class TestCommutatorNorm:
    def test_identity_commutes(self, rng):
        A = random_hermitian(4, rng)
        assert linalg.commutator_norm(A, np.eye(4)) == 0.0

    def test_diagonals_commute(self):
        assert linalg.commutator_norm(np.diag([1, 2]), np.diag([3, 4])) == 0.0

    def test_pauli_pair(self):
        assert abs(linalg.commutator_norm(PAULI_X, PAULI_Z) -
                   2 * np.sqrt(2)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            linalg.commutator_norm(np.eye(2), np.eye(3))
