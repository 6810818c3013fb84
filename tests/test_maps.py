import numpy as np
import pytest

from sepcrit import criteria, linalg, maps
from sepcrit.errors import (
    DimensionMismatch,
    InvalidParameters,
    NonHermitian,
    NotAntisymmetric,
    ParameterOutOfRange,
)
from sepcrit.states import DensityMatrix, random_density, random_separable

from conftest import bell_state


def catalog():
    return [
        maps.reduction_decomposition(3),
        maps.reduction_decomposition(4),
        maps.tau_u_decomposition(maps.default_breuer_unitary(4)),
        maps.transposition_decomposition(3),
        maps.breuer_hall_decomposition(d=4),
        maps.breuer_hall_tilde_decomposition(d=4),
        maps.phi_dk_decomposition(3, 1),
        maps.phi_dk_decomposition(4, 2),
        maps.theta_decomposition(2, [1, 1, 1]),
        # the Choi map in Kossakowski form
        maps.kossakowski_decomposition(np.array([[1.0, 1.0, 0.0],
                                                 [0.0, 1.0, 1.0],
                                                 [1.0, 0.0, 1.0]])),
    ]


class TestApplyMap:
    def test_identity(self, rng):
        X = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(maps.extend_apply(maps.identity_map(3), X, 1), X)

    def test_reduction_on_identity(self):
        R = maps.reduction_decomposition(3).map
        assert np.allclose(maps.extend_apply(R, np.eye(3), 1), 2 * np.eye(3))

    def test_choi_map_on_matrix_unit(self):
        phi = maps.phi_dk_decomposition(3, 1).map
        E00 = np.zeros((3, 3))
        E00[0, 0] = 1
        expected = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(maps.extend_apply(phi, E00, 1), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            maps.extend_apply(maps.identity_map(3), np.eye(4), 1)
        with pytest.raises(DimensionMismatch, match="Choi shape"):
            maps.MatrixMap(2, np.eye(3))


class TestExtendApply:
    def test_transposition_matches_partial_transpose(self, rng):
        rho = random_separable(3, 3, 3, rng).matrix
        T = maps.transposition_map(3)
        assert np.allclose(
            maps.extend_apply(T, rho, 3),
            linalg.partial_transpose(rho, 3, 3),
        )

    def test_identity_extension(self, rng):
        rho = random_separable(2, 3, 2, rng).matrix
        assert np.allclose(maps.extend_apply(maps.identity_map(3), rho, 2),
                           rho)

    def test_reduction_on_max_entangled(self):
        R = maps.reduction_decomposition(3).map
        out = maps.extend_apply(R, bell_state(3), 3)
        # rho_A (x) 1 - rho has spectrum {1/3 - 1, 1/3}
        assert abs(linalg.min_eigenvalue(out) + 2 / 3) <= 1e-12

    def test_separable_stays_psd(self, rng):
        for dec in catalog():
            d = dec.d
            rho = random_separable(d, d, 4, rng)
            assert dec.refutation is None, dec.name
            out = maps.extend_apply(dec.map, rho.matrix, d)
            assert linalg.min_eigenvalue(out) >= -1e-9, dec.name

    # 3.0 raised numpy's bare TypeError, and True on a 3x3 matrix was
    # taken as 1
    @pytest.mark.parametrize("dA,n", [(3.0, 9), (True, 3), (-1, 9), (0, 9),
                                      (None, 9)])
    def test_dimension_must_be_a_positive_integer(self, dA, n):
        for m in (maps.identity_map(3), (maps.identity_map(3),)):
            with pytest.raises(InvalidParameters,
                               match=rf"^dA={dA!r} must be a positive "):
                maps.extend_apply(m, np.eye(n) / n, dA)

    def test_numpy_integer_dimension(self, rng):
        rho = random_separable(3, 3, 3, rng).matrix
        T = maps.transposition_map(3)
        assert np.array_equal(maps.extend_apply(T, rho, np.int64(3)),
                              maps.extend_apply(T, rho, 3))


def extend_apply_per_block(m, rho, dA):
    """Reference [I (x) L](rho): L applied to each dB x dB block."""
    dB = m.d
    out = np.empty((dA * dB, dA * dB), dtype=complex)
    for i in range(dA):
        for j in range(dA):
            block = rho[i * dB:(i + 1) * dB, j * dB:(j + 1) * dB]
            out[i * dB:(i + 1) * dB, j * dB:(j + 1) * dB] = sum(
                block[k, l] * m.choi[k * dB:(k + 1) * dB, l * dB:(l + 1) * dB]
                for k in range(dB) for l in range(dB)
            )
    return out


class TestExtendApplyReference:
    """The one-matmul extend_apply against the per-block loop; summation
    order differs, so equality is to a few ulps of the operands."""

    @pytest.mark.parametrize("dA", [1, 2, 3, 5])
    def test_catalog_maps(self, dA, rng):
        for dec in catalog():
            for m in (dec.lambda1, dec.lambda2, dec.map):
                G = rng.standard_normal((dA * m.d,) * 2) \
                    + 1j * rng.standard_normal((dA * m.d,) * 2)
                ref = extend_apply_per_block(m, G, dA)
                bound = 1e-13 * linalg.fro(G) * max(1.0, linalg.fro(m.choi))
                assert linalg.fro(maps.extend_apply(m, G, dA) - ref) <= bound

    @pytest.mark.parametrize("dA,dB", [(2, 3), (3, 2), (4, 3), (1, 4)])
    def test_dense_random_map(self, dA, dB, rng):
        C = rng.standard_normal((dB * dB,) * 2) \
            + 1j * rng.standard_normal((dB * dB,) * 2)
        C = C + C.conj().T  # a map must preserve Hermiticity
        m = maps.MatrixMap(dB, C)
        stack = rng.standard_normal((3,) + (dA * dB,) * 2) \
            + 1j * rng.standard_normal((3,) + (dA * dB,) * 2)
        out = maps.extend_apply(m, stack, dA)
        for G, X in zip(stack, out):
            ref = extend_apply_per_block(m, G, dA)
            assert linalg.fro(maps.extend_apply(m, G, dA) - ref) <= \
                1e-13 * linalg.fro(G) * linalg.fro(C)
            # a stack gives the per-matrix bits
            assert np.array_equal(X, maps.extend_apply(m, G, dA))

    def test_difference_map_is_built_once(self):
        dec = maps.phi_dk_decomposition(3, 1)
        assert dec.map is dec.map
        assert np.array_equal(dec.map.choi,
                              dec.lambda1.choi - dec.lambda2.choi)

    def test_superoperator_is_cached_and_read_only(self):
        m = maps.reduction_decomposition(3).lambda1
        assert m.superoperator is m.superoperator
        assert not m.superoperator.flags.writeable


class TestIsCp:
    def test_trace_map_is_cp(self):
        dec = maps.reduction_decomposition(3)
        assert maps.is_cp(dec.lambda1)

    def test_reduction_not_cp(self):
        R = maps.reduction_decomposition(3).map
        assert not maps.is_cp(R)
        # Choi(R) = 1 - 3 |psi+><psi+| (unnormalized), min eigenvalue 1 - d
        assert abs(linalg.min_eigenvalue(R.choi) + 2.0) <= 1e-12

    def test_theta1_cp(self):
        assert maps.is_cp(maps.theta_decomposition(2, [1, 1, 1]).lambda1)


class TestIsPositiveSampled:
    def test_identity(self):
        ok, witness = maps.is_positive_sampled(maps.identity_map(3), 50, 1)
        assert ok and witness is None

    def test_reduction(self):
        R = maps.reduction_decomposition(3).map
        ok, _ = maps.is_positive_sampled(R, 200, 1)
        assert ok

    def test_negation_fails_immediately(self):
        neg = maps.MatrixMap(3, -maps.identity_map(3).choi)
        ok, witness = maps.is_positive_sampled(neg, 1, 1)
        assert not ok and witness is not None

    def test_negative_seed_is_a_typed_error(self):
        # numpy's default_rng raised a bare ValueError
        with pytest.raises(InvalidParameters, match="seed must be >= 0"):
            maps.is_positive_sampled(maps.identity_map(3), 3, -1)


class TestCatalogInvariants:
    @pytest.mark.parametrize("dec", catalog(), ids=lambda d: d.name)
    def test_halves_are_cp(self, dec):
        assert maps.is_cp(dec.lambda1)
        assert maps.is_cp(dec.lambda2)

    @pytest.mark.parametrize("dec", catalog(), ids=lambda d: d.name)
    def test_identity_half_exact(self, dec):
        if dec.lambda2_is_identity:
            assert np.array_equal(dec.lambda2.choi,
                                  maps.identity_map(dec.d).choi)

    def test_difference_matches_defining_formula(self):
        # reduction: R(X) = (Tr X) 1 - X evaluated independently
        d = 3
        R = maps.map_from_action(
            d, lambda X: np.trace(X) * np.eye(d) - X
        )
        dec = maps.reduction_decomposition(d)
        diff = dec.lambda1.choi - dec.lambda2.choi
        assert np.max(np.abs(diff - R.choi)) <= 1e-10

    def test_breuer_lambda1_is_twice_tau2(self):
        U = maps.default_breuer_unitary(4)
        bh = maps.breuer_hall_decomposition(U)
        tau = maps.tau_u_decomposition(U)
        assert np.max(np.abs(bh.lambda1.choi - 2 * tau.lambda2.choi)) <= 1e-12

    @pytest.mark.parametrize("d", [3, 4])
    def test_phi_d_dminus1_is_reduction(self, d):
        phi = maps.phi_dk_decomposition(d, d - 1)
        red = maps.reduction_decomposition(d)
        assert np.max(np.abs(phi.map.choi - red.map.choi)) <= 1e-12

    def test_phi31_equals_theta_2111(self):
        phi = maps.phi_dk_decomposition(3, 1)
        theta = maps.theta_decomposition(2, [1, 1, 1])
        assert np.max(np.abs(phi.map.choi - theta.map.choi)) <= 1e-12

    def test_transposition_choi_is_swap(self):
        from sepcrit.states import swap_operator

        T = maps.transposition_map(3)
        assert np.array_equal(T.choi, swap_operator(3))

    def test_phi_dk_indecomposable_flag(self):
        assert maps.phi_dk_decomposition(4, 2).indecomposable
        assert not maps.phi_dk_decomposition(3, 0).indecomposable
        assert not maps.phi_dk_decomposition(3, 2).indecomposable


class TestThetaPositivity:
    def test_choi_map_parameters(self):
        out = maps.theta_positivity(2, [1, 1, 1])
        assert out == {"positive": True, "indecomposable": True}

    def test_a_equal_d_decomposable(self):
        out = maps.theta_positivity(3, [1, 1, 1])
        assert out == {"positive": True, "indecomposable": False}

    def test_small_a_not_positive(self):
        out = maps.theta_positivity(1, [1, 1, 1])
        assert not out["positive"]

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(InvalidParameters):
            maps.theta_positivity(0, [1, 1, 1])
        with pytest.raises(InvalidParameters):
            maps.theta_positivity(2, [1, -1, 1])


class TestParameterValidation:
    def test_breuer_requires_antisymmetric(self):
        with pytest.raises(NotAntisymmetric):
            maps.breuer_hall_decomposition(np.eye(4))

    def test_breuer_requires_contraction(self):
        U = 2 * maps.default_breuer_unitary(4)
        with pytest.raises(InvalidParameters):
            maps.breuer_hall_decomposition(U)

    def test_phi_dk_range(self):
        with pytest.raises(InvalidParameters):
            maps.phi_dk_decomposition(3, 3)

    def test_theta_requires_positivity(self):
        with pytest.raises(InvalidParameters):
            maps.theta_decomposition(1.5, [1, 1, 1])

    def test_kossakowski_flags_unverified_positivity(self):
        dec = maps.kossakowski_decomposition(np.zeros((3, 3)))
        assert dec.positivity_unverified

    def test_kossakowski_requires_nonnegative(self):
        with pytest.raises(InvalidParameters):
            maps.kossakowski_decomposition(-2 * np.eye(3))

    def test_unknown_family(self):
        with pytest.raises(InvalidParameters):
            maps.make_decomposition("frobnicate", d=3)

    @pytest.mark.parametrize("d", [0, -1, 2.0, True, None])
    def test_rejects_a_d_that_is_not_a_positive_integer(self, d):
        # d = 0 built a map, -1 raised a bare ValueError
        for build in (lambda: maps.make_decomposition("reduction", d=d),
                      lambda: maps.reduction_decomposition(d),
                      lambda: maps.identity_map(d),
                      lambda: maps.MatrixMap(d, np.zeros((1, 1)))):
            with pytest.raises(InvalidParameters,
                               match="must be a positive integer"):
                build()

    @pytest.mark.parametrize("call, name", [
        ("random_density(2.5)", "d="),
        ("random_density(1)", "d="),
        ("random_density(9, seed=-1)", "seed="),
        ("random_separable(3, 2.5)", "dA="),
        ("random_separable(1, 3)", "dA="),
        ("random_separable(3, 3, k=2.5)", "k="),
        ("random_separable(3, 3, k=True)", "k="),
        ("random_separable(3, 3, k=0)", "k="),
        ("random_separable(3, 3, seed=-1)", "seed="),
        ("maps.phi_dk_decomposition(3, 1.5)", "k="),
        ("maps.phi_dk_decomposition(3.0, 1)", "d="),
        ("maps.phi_dk_decomposition(True, 0)", "d="),
        ("maps.default_breuer_unitary(4.0)", "d="),
        ("maps.default_breuer_unitary(3)", "d=3 is odd"),
        ("maps.breuer_hall_decomposition(d=4.0)", "d="),
        ("maps.tau_u_decomposition(d=4.0)", "d="),
        ("maps.transposition_decomposition(2.0)", "d="),
        ("maps.is_positive_sampled(m, n_samples=2.5)", "n_samples"),
        ("maps.is_positive_sampled(m, n_samples=0)", "n_samples"),
        ("maps.is_positive_sampled(m, seed=1.5)", "seed"),
        ("maps.breuer_hall_decomposition(U_nan)", "U "),
    ])
    def test_rejects_an_argument_of_the_wrong_kind(self, call, name):
        # each raised numpy's TypeError, ValueError or LinAlgError, or
        # (d=1, k=0, n_samples=0) InvalidParameters without the value
        names = dict(maps=maps, random_density=random_density,
                     random_separable=random_separable,
                     m=maps.identity_map(2), U_nan=np.where(
                         np.eye(4), np.nan, maps.default_breuer_unitary(4)))
        with pytest.raises(InvalidParameters, match="^" + name):
            eval(call, names)

    @pytest.mark.parametrize("build", [
        maps.breuer_hall_decomposition,
        maps.breuer_hall_tilde_decomposition,
        maps.tau_u_decomposition])
    def test_d_must_be_the_size_of_U(self, build):
        # d was silently ignored when U was given
        U = maps.default_breuer_unitary(4)
        with pytest.raises(InvalidParameters, match="^d=6 is not the size"):
            build(U, d=6)
        assert build(U, d=4).d == build(U).d == build().d == 4
        assert build(d=6).d == 6

    @pytest.mark.parametrize("a, c", [
        (2, []), (np.inf, [1, 1, 1]), (2, [1, np.inf, 1]),
        (np.nan, [1, 1, 1]), (2, [1, np.nan, 1])])
    def test_theta_rejects_empty_or_non_finite(self, a, c):
        # these warned (an error under the test suite's filterwarnings)
        with pytest.raises(InvalidParameters):
            maps.theta_decomposition(a, c)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_kossakowski_rejects_non_finite(self, value):
        with pytest.raises(InvalidParameters):
            maps.kossakowski_decomposition([value] * 4)
        with pytest.raises(InvalidParameters):
            maps.kossakowski_decomposition([])

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-9, 0.0, 1e-14, 1e-2])
    def test_map_tests_reject_a_tol_out_of_range(self, tol):
        # a nan or inf tol read a map that is not positive as positive,
        # and a nan one read a CP map as not CP
        m = maps.kossakowski_decomposition(np.zeros((3, 3))).map
        assert not maps.is_positive_sampled(m, 50, 0)[0]
        with pytest.raises(ParameterOutOfRange, match="tol="):
            maps.is_positive_sampled(m, 50, 0, tol=tol)
        with pytest.raises(ParameterOutOfRange, match="tol="):
            maps.is_cp(maps.identity_map(2), tol=tol)


    @pytest.mark.parametrize("build, big", [
        (lambda a: maps.theta_decomposition(a, [a, a]), 1e155),
        (lambda a: maps.kossakowski_decomposition([a, 0, 0, a]), 1e200)])
    def test_a_choi_norm_that_overflows_is_refused(self, build, big):
        # ||C||_F overflowed to inf, and so did the clamp band of X1, which
        # then zeroed X1's whole spectrum: the maximally mixed state read
        # VIOLATED (lhs 0, rhs 0.5), with overflow warnings
        with pytest.raises(InvalidParameters, match="not a finite number"):
            build(big)
        with pytest.raises(InvalidParameters, match="not a finite number"):
            maps.MatrixMap(2, np.full((4, 4), big))
        rho = DensityMatrix(np.eye(4) / 4, 2, 2)
        res = criteria.alpha_beta_inequality(rho, build(1e150), 1.0, 0.5)
        assert not res.violated and res.margin > 0


def test_make_decomposition_dispatch():
    dec = maps.make_decomposition("phi_dk", d=3, k=1)
    assert dec.name == "phi_dk"
    assert dec.lambda2_is_identity
    assert maps.make_decomposition("reduction", d=3).indecomposable is False


# parameters building each catalog family (the rest take their defaults)
FAMILY_PARAMS = {
    "reduction": {"d": 3}, "identity": {"d": 3}, "transposition": {"d": 3},
    "tau_u": {}, "breuer_hall": {}, "breuer_hall_tilde": {},
    "phi_dk": {"d": 3, "k": 1}, "theta": {"a": 2, "c": [1, 1, 1]},
    "kossakowski": {"a": np.ones((3, 3)) - np.eye(3)},
}


class TestOneHermitianCheckPerMap:
    """A map's Choi matrix is checked once, when the MatrixMap is built:
    it is Hermitian exactly when the map preserves Hermiticity."""

    def test_non_hermitian_choi_is_rejected(self):
        C = maps.reduction_decomposition(3).lambda1.choi.copy()
        C[0, 1] += 0.3
        with pytest.raises(NonHermitian, match="does not preserve Herm"):
            maps.MatrixMap(3, C)
        # nor can a CP decomposition hold one
        with pytest.raises(NonHermitian):
            maps.CPDecomposition(maps.MatrixMap(3, C),
                                 maps.identity_map(3), "bad")

    def test_hermitian_within_tol_is_accepted(self):
        C = maps.reduction_decomposition(3).lambda1.choi.copy()
        C[0, 1] += 0.5e-10
        assert linalg.is_hermitian(maps.MatrixMap(3, C).choi)

    @pytest.mark.parametrize("family", sorted(maps._FAMILIES))
    def test_every_family_builds(self, family):
        assert FAMILY_PARAMS.keys() == maps._FAMILIES.keys()
        dec = maps.make_decomposition(family, **FAMILY_PARAMS[family])
        for m in (dec.lambda1, dec.lambda2, dec.map):
            assert linalg.is_hermitian(m.choi)
