import numpy as np
import pytest

from sepcrit import criteria, linalg, maps, scan, states
from sepcrit.criteria import Kind
from sepcrit.errors import (
    AllProjectionsVanish,
    CommutativityViolated,
    InvalidParameters,
    ParameterOutOfRange,
    SingularOperand,
)

from conftest import bell_state, pure_products


def bell_density(d=2):
    return states.DensityMatrix(bell_state(d), d, d)


def pure_product(dA, dB):
    rho = np.zeros((dA * dB, dA * dB), dtype=complex)
    rho[0, 0] = 1.0
    return states.DensityMatrix(rho, dA, dB)


class TestAlphaBetaInequality:
    def test_pure_product_saturates(self):
        dec = maps.reduction_decomposition(2)
        res = criteria.alpha_beta_inequality(
            pure_product(2, 2), dec, 1, 2, Kind.I
        )
        assert abs(res.lhs - 1.0) <= 1e-10
        assert abs(res.rhs - 1.0) <= 1e-10
        assert not res.violated

    def test_bell_state_violates_kind_one(self):
        dec = maps.reduction_decomposition(2)
        res = criteria.alpha_beta_inequality(bell_density(), dec, 1, 2, Kind.I)
        # lhs = Tr rho_A^3 = 1/4, rhs = Tr rho^3 = 1
        assert abs(res.lhs - 0.25) <= 1e-10
        assert abs(res.rhs - 1.0) <= 1e-10
        assert res.violated

    def test_horodecki_kind_two_detection_window(self):
        dec = maps.phi_dk_decomposition(3, 1)
        hit = criteria.alpha_beta_inequality(
            states.horodecki_state(4.3), dec, 10, 1, Kind.II, tol=1e-13
        )
        miss = criteria.alpha_beta_inequality(
            states.horodecki_state(2.5), dec, 10, 1, Kind.II, tol=1e-13
        )
        assert hit.violated
        assert not miss.violated

    def test_kind_four_shares_lhs_with_kind_two(self, rng):
        dec = maps.reduction_decomposition(3)
        rho = states.random_separable(3, 3, 4, rng)
        r2 = criteria.alpha_beta_inequality(rho, dec, 2, 1, Kind.II)
        r4 = criteria.alpha_beta_inequality(rho, dec, 2, 1, Kind.IV)
        assert abs(r2.lhs - r4.lhs) <= 1e-10

    def test_kind_three_reverses_direction(self):
        # On the Bell state the reduction criterion flips sign for
        # negative beta: lhs = Tr rho (rho_A x 1)^(-1) vs Tr rho^0.
        dec = maps.reduction_decomposition(2)
        rho = states.DensityMatrix(
            0.9 * bell_state(2) + 0.1 * np.eye(4) / 4, 2, 2
        )
        up = criteria.alpha_beta_inequality(rho, dec, 1, -1, Kind.III)
        assert up.margin == up.rhs - up.lhs

    def test_kind_one_requires_commutativity(self, rng):
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        rho = states.random_separable(4, 4, 4, rng)
        with pytest.raises(CommutativityViolated):
            criteria.alpha_beta_inequality(rho, dec, 1, 2, Kind.I)

    def test_kind_one_accepts_commuting_state(self, rng):
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        p, q, r, _ = rng.dirichlet(np.ones(4))
        rho = states.so3_state(p, q, r)
        res = criteria.alpha_beta_inequality(rho, dec, 1, 2, Kind.I)
        assert res.commutator_norm is not None
        assert res.commutator_norm <= 1e-9

    def test_kind_three_rejects_singular(self):
        dec = maps.reduction_decomposition(2)
        with pytest.raises(SingularOperand):
            criteria.alpha_beta_inequality(
                pure_product(2, 2), dec, 1, -0.5, Kind.III
            )

    @pytest.mark.parametrize("kind,beta", [
        (Kind.I, 0.5), (Kind.II, 1.5), (Kind.II, -0.1),
        (Kind.III, 0.5), (Kind.III, -1.5), (Kind.IV, -0.5),
        (None, -2.0),
        ("V", 1.0), ("PPT", 1.0), (Kind.ENTROPIC, 1.0), (Kind.PPT, 1.0),
    ])
    def test_parameter_ranges(self, kind, beta):
        dec = maps.reduction_decomposition(2)
        with pytest.raises(ParameterOutOfRange):
            criteria.alpha_beta_inequality(bell_density(), dec, 1, beta, kind)
        with pytest.raises(ParameterOutOfRange):
            scan.RegionCriterion("c", dec, 1, beta, kind).evaluate(
                bell_density())

    @pytest.mark.parametrize("beta,kind", [(2.0, Kind.I), (1.0, Kind.II),
                                           (0.5, Kind.II),
                                           (-0.5, Kind.III)])
    def test_missing_kind_is_routed_by_beta(self, rng, beta, kind):
        # lambda2 of the reduction map is the identity, so kind I needs no
        # commutativity; the state is full rank, so kind III is defined
        dec = maps.reduction_decomposition(3)
        rho = states.DensityMatrix(states.random_density(9, rng), 3, 3)
        want = criteria.alpha_beta_inequality(rho, dec, 2, beta, kind)
        assert want.kind is kind
        for got in (criteria.alpha_beta_inequality(rho, dec, 2, beta),
                    criteria.alpha_beta_inequality(rho, dec, 2, beta,
                                                   kind.value)):
            assert repr(tuple(got)) == repr(tuple(want))

    def test_negative_alpha_rejected(self):
        dec = maps.reduction_decomposition(2)
        with pytest.raises(ParameterOutOfRange):
            criteria.alpha_beta_inequality(bell_density(), dec, -1, 2, Kind.I)

    @pytest.mark.parametrize("alpha,beta", [
        (np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
        (1.0, np.nan), (1.0, np.inf), (1.0, -np.inf),
    ])
    def test_non_finite_parameters_rejected(self, alpha, beta):
        # alpha = inf at beta 1 is the limit witness, for kind II only
        dec = maps.reduction_decomposition(2)
        limit = (alpha, beta) == (np.inf, 1.0)
        for kind in Kind.I, Kind.II, Kind.III, Kind.IV:
            if limit and kind is Kind.II:
                res = criteria.alpha_beta_inequality(
                    bell_density(), dec, alpha, beta, kind)
                assert res.lhs == criteria.limit_witness(bell_density(),
                                                         dec.map)
                assert abs(res.lhs + 0.5) <= 1e-12
                assert (res.rhs, res.margin, res.violated, res.kind) == \
                    (0.0, res.lhs, True, Kind.II)
                continue
            with pytest.raises(ParameterOutOfRange,
                               match="^alpha=inf" if limit else None):
                criteria.alpha_beta_inequality(
                    bell_density(), dec, alpha, beta, kind
                )

    def test_identity_kind_three_rejects_singular_state(self):
        # X1 = rho_A (x) 1 = 1/4 is regular; X2 = rho is a rank-one
        # projector, so rho^(-1/2) on the right-hand side is undefined.
        dec = maps.reduction_decomposition(2)
        with pytest.raises(SingularOperand, match="X2"):
            criteria.alpha_beta_inequality(
                bell_density(), dec, 1, -0.5, Kind.III
            )

    def test_identity_shortcut_matches_generic_rhs(self, rng):
        # Eq for lambda2 = identity: rhs = Tr rho^(alpha+beta)
        dec = maps.reduction_decomposition(3)
        rho = states.random_separable(3, 3, 4, rng)
        res = criteria.alpha_beta_inequality(rho, dec, 2, 2, Kind.I)
        direct = np.trace(
            np.linalg.matrix_power(rho.matrix, 4)
        ).real
        assert abs(res.rhs - direct) <= 1e-12


class TestEntropicInequality:
    def test_pure_product_saturates(self):
        res = criteria.entropic_inequality(pure_product(2, 2), 2)
        assert abs(res.lhs - 1.0) <= 1e-10
        assert abs(res.rhs - 1.0) <= 1e-10
        assert not res.violated

    def test_bell_state_violates(self):
        res = criteria.entropic_inequality(bell_density(), 2)
        assert abs(res.lhs - 0.5) <= 1e-10
        assert abs(res.rhs - 1.0) <= 1e-10
        assert res.violated

    def test_direction_reverses_below_one(self):
        res = criteria.entropic_inequality(bell_density(), 0.5)
        assert res.margin == res.rhs - res.lhs
        assert res.violated

    @pytest.mark.parametrize("alpha", [2, 3, 4])
    def test_matches_reduction_special_case(self, alpha, rng):
        dec = maps.reduction_decomposition(3)
        for _ in range(10):
            rho = states.DensityMatrix(
                states.random_density(9, rng), 3, 3
            )
            ent = criteria.entropic_inequality(rho, alpha)
            red = criteria.alpha_beta_inequality(
                rho, dec, 1, alpha - 1, Kind.I
            )
            assert abs(ent.lhs - red.lhs) <= 1e-10
            assert abs(ent.rhs - red.rhs) <= 1e-10
            assert ent.violated == red.violated

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(ParameterOutOfRange):
            criteria.entropic_inequality(bell_density(), alpha)

    def test_rejects_alpha_one(self):
        with pytest.raises(ParameterOutOfRange):
            criteria.entropic_inequality(bell_density(), 1.0)

    @pytest.mark.parametrize("subsystem", ["", None, "C"])
    def test_rejects_bad_subsystem(self, subsystem):
        # a dense state, a family state and a family stack
        bad = "must be 'A' or 'B'"
        stack = states.so3_stack(0.2, 0.3, [0.1, 0.2])
        for rho in (bell_density(), stack[0]):
            with pytest.raises(InvalidParameters, match=bad):
                criteria.entropic_inequality(rho, 2, subsystem)
        with pytest.raises(InvalidParameters, match=bad):
            criteria._entropic(criteria.Spectra(stack), 2.0, subsystem)
        for rho in (bell_density(), stack[0], stack):
            with pytest.raises(InvalidParameters, match=bad):
                rho.marginal(subsystem)


class TestStructuralAndPpt:
    def test_separable_passes_reduction(self, rng):
        R = maps.reduction_decomposition(3).map
        rho = states.random_separable(3, 3, 4, rng)
        assert criteria.structural_criterion(rho, R) >= -1e-9

    def test_horodecki_npt_above_four(self):
        T = maps.transposition_map(3)
        assert criteria.structural_criterion(
            states.horodecki_state(4.5), T
        ) < -1e-6

    def test_choi_map_detects_bound_entanglement(self):
        phi = maps.phi_dk_decomposition(3, 1).map
        assert criteria.structural_criterion(
            states.horodecki_state(3.5), phi
        ) < -1e-9

    def test_ppt_values(self):
        assert criteria.ppt_check(pure_product(2, 2)) >= -1e-12
        assert abs(criteria.ppt_check(states.horodecki_state(4.0))) <= 1e-8
        assert abs(criteria.ppt_check(bell_density()) + 0.5) <= 1e-12


# (alpha, beta, kind) triples on which the reduction inequality is tight
# (margin exactly 0) on every pure product state.
PRODUCT_TRIPLES = [(1, 1, Kind.II), (2, 1, Kind.II), (2, 2, Kind.I),
                   (1, 2, Kind.IV)]


class TestTolFloor:
    """tol is the verdict threshold and the clamp band; below
    TOL_FLOOR = 1e-13 rounding alone decides zero margins, so it is
    rejected where every criterion reads its arrays, in Spectra."""

    def test_pure_products_at_and_below_the_floor(self):
        # Without the floor, 1e-15 gave 18 and 1e-16 gave 119 false
        # VIOLATED verdicts on these 300 x 4, and 1e-16 raised NotPSD or
        # NonHermitian on 868 more.
        dec = maps.reduction_decomposition(3)
        rhos = [states.DensityMatrix(m, 3, 3) for m in pure_products(300, 7)]
        assert criteria.TOL_FLOOR == 1e-13
        for a, b, kind in PRODUCT_TRIPLES:
            violated = [criteria.alpha_beta_inequality(
                rho, dec, a, b, kind, 1e-13).violated for rho in rhos]
            assert not any(violated)
            for tol in (1e-14, 1e-15, 1e-16):
                for rho in rhos:
                    with pytest.raises(ParameterOutOfRange):
                        criteria.alpha_beta_inequality(rho, dec, a, b, kind,
                                                       tol)
        assert all(rho.cache.keys() == {1e-13} for rho in rhos)

    @pytest.mark.parametrize("tol", [9.9e-14, 1e-16, 0.0, -1e-9, np.nan])
    def test_every_criterion_rejects(self, tol):
        rho = states.horodecki_state(3.5)
        dec = maps.phi_dk_decomposition(3, 1)
        calls = [
            lambda: criteria.Spectra(rho, tol),
            lambda: criteria.Spectra(states.horodecki_stack([3.0, 4.0]), tol),
            lambda: criteria.alpha_beta_inequality(rho, dec, 2, 1, Kind.II,
                                                   tol),
            lambda: criteria.entropic_inequality(rho, 2, "A", tol),
            lambda: criteria.structural_criterion(rho, dec.map, tol),
            lambda: criteria.ppt_check(rho, tol),
            lambda: criteria.limit_witness(rho, dec.map, tol),
            lambda: scan.check_state(rho, [], include_ppt=True, tol=tol),
            lambda: next(scan.so3_region(0.2, [], 4, tol)),
        ]
        for call in calls:
            with pytest.raises(ParameterOutOfRange):
                call()
        assert rho.cache == {}


class TestLimitWitness:
    def test_maximally_mixed_reduction(self):
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        R = maps.reduction_decomposition(2).map
        assert abs(criteria.limit_witness(rho, R) - 1.0) <= 1e-10

    def test_horodecki_detection(self):
        phi = maps.phi_dk_decomposition(3, 1).map
        assert criteria.limit_witness(states.horodecki_state(4.8), phi) < 0
        assert criteria.limit_witness(states.horodecki_state(2.5), phi) >= 0

    def test_invariant_under_degenerate_rotation(self, rng):
        # Value must depend only on the top eigen-group projector, so a
        # unitary rotation inside the degenerate block changes nothing.
        phi = maps.phi_dk_decomposition(3, 1).map
        rho = states.horodecki_state(4.8)
        base = criteria.limit_witness(rho, phi)
        w, V = linalg.hermitian_eig(rho.matrix)
        # rebuild rho from a re-randomized basis of each degenerate block
        M = np.zeros_like(rho.matrix)
        i = 0
        while i < len(w):
            j = i
            while j + 1 < len(w) and w[j + 1] - w[i] <= 1e-9:
                j += 1
            block = V[:, i:j + 1]
            k = j - i + 1
            G = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            Q, _ = np.linalg.qr(G)
            block = block @ Q
            M += w[i] * block @ block.conj().T
            i = j + 1
        rot = states.DensityMatrix(M, 3, 3)
        assert abs(criteria.limit_witness(rot, phi) - base) <= 1e-8

    def test_difference_map_has_one_cache_entry(self):
        dec = maps.phi_dk_decomposition(3, 1)
        rho = states.horodecki_state(4.8)
        first = criteria.limit_witness(rho, dec.map)
        sp = criteria.Spectra.of(rho)
        entry = sp.map(dec.map)
        assert criteria.limit_witness(rho, dec.map) == first
        assert list(rho.cache) == [sp.tol] and rho.cache[sp.tol] is sp
        assert list(sp._maps.values()) == [entry]

    def test_all_projections_vanish(self):
        zero = maps.MatrixMap(2, np.zeros((4, 4)))
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        with pytest.raises(AllProjectionsVanish):
            criteria.limit_witness(rho, zero)


class TestSoundnessSample:
    """Smaller randomized soundness run; the full suite lives in
    test_acceptance."""

    def test_no_false_positives(self, rng):
        decs = [maps.reduction_decomposition(3),
                maps.phi_dk_decomposition(3, 1)]
        params = [(1, 2, Kind.I), (2, 0.5, Kind.II), (1, 1, Kind.IV),
                  (2, -0.5, Kind.III)]
        for _ in range(25):
            rho = states.random_separable(3, 3, 4, rng)
            for dec in decs:
                for a, b, kind in params:
                    try:
                        res = criteria.alpha_beta_inequality(
                            rho, dec, a, b, kind
                        )
                    except SingularOperand:
                        continue
                    assert not res.violated, (dec.name, a, b, kind)

    @pytest.mark.parametrize("tol", [1e-9, criteria.TOL_FLOOR])
    def test_limit_witness_no_false_positives(self, tol):
        # alpha = inf on pure products and on mixtures of 1, 2 and 4
        # products, against the acceptance suite's map catalog; the
        # smallest margin is 3.1e-4 at either tol
        rng = np.random.default_rng(20240818)
        catalog = {
            3: [maps.reduction_decomposition(3),
                maps.phi_dk_decomposition(3, 1),
                maps.theta_decomposition(2, [1, 1, 1]),
                maps.transposition_decomposition(3)],
            4: [maps.reduction_decomposition(4),
                maps.breuer_hall_decomposition(d=4),
                maps.breuer_hall_tilde_decomposition(d=4),
                maps.phi_dk_decomposition(4, 2),
                maps.tau_u_decomposition(maps.default_breuer_unitary(4))],
        }
        evaluated = 0
        for d, decs in catalog.items():
            stacks = [pure_products(300, 7, d)] + [
                [states.random_separable(d, d, k, rng).matrix
                 for _ in range(100)] for k in (1, 2, 4)]
            for mats in stacks:
                sp = criteria.Spectra(states.DensityMatrix(mats, d, d), tol)
                for dec in decs:
                    got = scan.RegionCriterion(dec.name, dec,
                                               np.inf).verdicts(sp)
                    assert not any(res.violated for res in got), dec.name
                    evaluated += len(got)
        assert evaluated == (300 + 3 * 100) * (4 + 5)


def dense_reference(rho, dec, alpha, beta, kind, tol=1e-9):
    """(violated, margin) from explicit matrix powers, as the criteria
    were evaluated before the spectral core."""
    M = rho.matrix
    X1 = maps.extend_apply(dec.lambda1, M, rho.dA)
    X2 = M if dec.lambda2_is_identity else maps.extend_apply(
        dec.lambda2, M, rho.dA
    )
    rho_a = linalg.psd_power(M, alpha, tol)
    lhs = np.trace(rho_a @ linalg.psd_power(X1, beta, tol)).real
    if kind is Kind.IV:
        lam = np.clip(np.linalg.eigvalsh(M)[::-1], 0, None)
        sig = linalg.sorted_singular_values(X2)
        rhs = np.sum(lam ** alpha * sig ** beta)
    else:
        rhs = np.trace(rho_a @ linalg.psd_power(X2, beta, tol)).real
    margin = rhs - lhs if kind is Kind.III else lhs - rhs
    return margin < -tol * max(1.0, abs(lhs), abs(rhs)), margin


SWEEP_TRIPLES = (
    [(a, b, Kind.I) for a in (1, 2, 5, 10) for b in (2, 3)]
    + [(a, b, Kind.II) for a in (1, 2, 5, 10) for b in (0.5, 1)]
    + [(a, b, Kind.IV) for a in (1, 2) for b in (1, 2)]
    + [(a, -0.5, Kind.III) for a in (1, 2)]
)


class TestSpectralCore:
    def sweep_states(self, rng):
        for d in (3, 4):
            for _ in range(6):
                yield states.random_separable(d, d, 4, rng)
                yield states.DensityMatrix(states.random_density(d * d, rng),
                                           d, d)
            for p in (0.1, 0.3, 0.6, 0.9):
                yield states.DensityMatrix(
                    p * bell_state(d) + (1 - p) * np.eye(d * d) / d ** 2,
                    d, d,
                )

    def test_sweep_matches_dense_reference(self, rng):
        decs = {3: [maps.reduction_decomposition(3),
                    maps.phi_dk_decomposition(3, 1),
                    maps.theta_decomposition(2, [1, 1, 1]),
                    maps.transposition_decomposition(3)],
                4: [maps.reduction_decomposition(4),
                    maps.breuer_hall_decomposition(d=4),
                    maps.breuer_hall_tilde_decomposition(d=4),
                    maps.phi_dk_decomposition(4, 2),
                    maps.tau_u_decomposition(
                        maps.default_breuer_unitary(4))]}
        evaluated = violated = 0
        for rho in self.sweep_states(rng):
            for dec in decs[rho.dA]:
                for a, b, kind in SWEEP_TRIPLES:
                    if kind is Kind.I and not dec.lambda2_is_identity:
                        continue
                    res = criteria.alpha_beta_inequality(rho, dec, a, b, kind)
                    ref_violated, ref_margin = dense_reference(
                        rho, dec, a, b, kind
                    )
                    assert res.violated == ref_violated
                    assert abs(res.margin - ref_margin) <= 1e-12
                    evaluated += 1
                    violated += res.violated
        assert evaluated == 16 * (3 * 22 + 14) + 16 * (4 * 22 + 14)
        assert 0 < violated < evaluated

    def test_cache_isolation(self, rng):
        dec = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        a = states.random_separable(4, 4, 4, rng)
        b = states.random_separable(4, 4, 4, rng)
        for rho in a, b:
            for tol in 1e-9, 1e-12:
                criteria.alpha_beta_inequality(rho, dec, 2, 0.5, Kind.II,
                                               tol=tol)
        # one Spectra per (state, tol), keyed by tol alone
        assert set(a.cache) == set(b.cache) == {1e-9, 1e-12}
        spectra = [rho.cache[tol] for rho in (a, b) for tol in (1e-9, 1e-12)]
        assert len({id(sp) for sp in spectra}) == 4
        assert len({id(sp.map(dec.lambda2).X) for sp in spectra}) == 4
        for rho in a, b:
            for tol in 1e-9, 1e-12:
                sp = criteria.Spectra.of(rho, tol)
                assert sp is rho.cache[tol] and sp.tol == tol
                entry = sp.map(dec.lambda2)
                assert entry.map is dec.lambda2 and entry.tol == tol
                assert np.array_equal(
                    entry.X, maps.extend_apply(dec.lambda2, rho.matrix, 4)
                )

    def test_cached_result_equals_cold_result(self, rng):
        dec = maps.phi_dk_decomposition(4, 2)
        warm = states.random_separable(4, 4, 4, rng)
        for a, b, kind in SWEEP_TRIPLES:
            criteria.alpha_beta_inequality(warm, dec, a, b, kind)
        for a, b, kind in SWEEP_TRIPLES:
            cold = states.DensityMatrix(warm.matrix.copy(), 4, 4)
            assert criteria.alpha_beta_inequality(warm, dec, a, b, kind) == \
                criteria.alpha_beta_inequality(cold, dec, a, b, kind)


def rank_deficient_separable(d, k, rng):
    """Mixture of k pure product states on C^d (x) C^d (rank <= k)."""
    rho = np.zeros((d * d, d * d), dtype=complex)
    for w in rng.dirichlet(np.ones(k)):
        a, b = (rng.standard_normal(d) + 1j * rng.standard_normal(d)
                for _ in range(2))
        psi = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        rho += w * np.outer(psi, psi.conj())
    return states.DensityMatrix(rho, d, d)


class TestZeroPower:
    """0^0 := 0 on the clamped kernel: the t -> 0+ limit."""

    def test_entropic_alpha_zero_is_rank_test(self):
        res = criteria.entropic_inequality(bell_density(), 0)
        assert (res.lhs, res.rhs) == (2.0, 1.0)  # rank rho_A, rank rho
        assert res.violated
        assert not criteria.entropic_inequality(pure_product(3, 3), 0).violated

    def test_entropic_below_one_cuts_the_clamped_mass(self):
        # at tol 1e-9 rho's 15 eigenvalues 6.25e-10 clamp to 0 and the
        # marginal's three 2.5e-9 do not: rank 4 read against rank 1
        psi = np.kron(np.eye(4)[0], np.eye(4)[1]).astype(complex)
        rho = states.DensityMatrix(
            (1 - 1e-8) * np.outer(psi, psi) + 1e-8 * np.eye(16) / 16, 4, 4)
        res = criteria.entropic_inequality(rho, 0, tol=1e-9)
        assert (res.lhs, res.rhs) == (1.0, 1.0)
        for alpha in (0.5, 0.9, 0.99):
            assert not criteria.entropic_inequality(rho, alpha,
                                                    tol=1e-9).violated
        # at tol 1e-11 nothing clamps: the ranks are 4 and 16
        res = criteria.entropic_inequality(rho, 0, tol=1e-11)
        assert (res.lhs, res.rhs) == (4.0, 16.0)

    def test_rank_deficient_separable_never_violate(self, rng):
        catalog = {3: [maps.reduction_decomposition(3),
                       maps.phi_dk_decomposition(3, 1),
                       maps.theta_decomposition(2, [1, 1, 1]),
                       maps.transposition_decomposition(3)],
                   4: [maps.reduction_decomposition(4),
                       maps.breuer_hall_decomposition(d=4),
                       maps.breuer_hall_tilde_decomposition(d=4),
                       maps.phi_dk_decomposition(4, 2),
                       maps.tau_u_decomposition(
                           maps.default_breuer_unitary(4))]}
        triples = ([(0, b, Kind.I) for b in (1, 2)]
                   + [(0, b, Kind.II) for b in (0, 0.5, 1)]
                   + [(0, b, Kind.IV) for b in (0, 1, 2)]
                   + [(0, -0.5, Kind.III)]
                   + [(a, 0, kind) for a in (0.5, 1, 2, 5)
                      for kind in (Kind.II, Kind.IV)])
        evaluated = 0
        for d, decs in catalog.items():
            for k in (1, 2, 3):
                for _ in range(4):
                    rho = rank_deficient_separable(d, k, rng)
                    assert not criteria.entropic_inequality(rho, 0).violated
                    for dec in decs:
                        for a, b, kind in triples:
                            if kind is Kind.I and not dec.lambda2_is_identity:
                                continue
                            try:
                                res = criteria.alpha_beta_inequality(
                                    rho, dec, a, b, kind)
                            except SingularOperand:
                                continue
                            assert not res.violated, (dec.name, k, a, b, kind)
                            evaluated += 1
        assert evaluated > 1000

    def test_kind_four_uses_clamped_spectrum(self):
        # lambda2 = identity: the singular values are rho's clamped
        # spectrum [0, ..., 0, 1].  Kind IV pairs it ascending with rho's
        # descending spectrum, so the pure state's weight meets an exact
        # zero; raising the unclamped kernel (~1e-17) to beta = 0 gave 1.
        rho = pure_product(3, 3)
        dec = maps.reduction_decomposition(3)
        for beta in (0, 1):
            res = criteria.alpha_beta_inequality(rho, dec, 1, beta, Kind.IV)
            assert res.rhs == 0.0


class TestFillCache:
    """A state's cache is one Spectra per tol, filled lazily by the
    one-state criteria; a stacked Spectra holds the same bits."""

    def test_stack_fill_equals_lazy_fill(self, rng):
        dec = maps.breuer_hall_decomposition(d=4)
        mats = [states.random_separable(4, 4, 4, rng).matrix
                for _ in range(3)]
        stack = states.DensityMatrix(mats, 4, 4)
        stacked = list(stack)
        sp = criteria.Spectra(stack, 1e-9)
        for k, rho in enumerate(stacked):
            lazy = states.DensityMatrix(rho.matrix.copy(), 4, 4)
            criteria.alpha_beta_inequality(lazy, dec, 2, 0.5, Kind.II,
                                           tol=1e-9)
            criteria.entropic_inequality(lazy, 2, "B", tol=1e-9)
            criteria.ppt_check(lazy, 1e-9)
            one = lazy.cache[1e-9]
            for m in (dec.lambda1, dec.lambda2):
                got, want = sp.map(m), one.map(m)
                for name in ("X", "weights", "mu", "overlap"):
                    assert np.array_equal(getattr(got, name)[k],
                                          getattr(want, name))
            assert np.array_equal(sp.lam[k], one.lam)
            assert np.array_equal(sp.marginal("B")[k], one.marginal("B"))
            assert sp.ppt[k] == one.ppt
            assert list(lazy.cache) == [1e-9]
        # the stacked Spectra makes no per-state entries
        assert all(rho.cache == {} for rho in stacked)

    def test_keeps_existing_entries(self, rng):
        dec = maps.reduction_decomposition(3)
        rho = states.random_separable(3, 3, 4, rng)
        sp = criteria.Spectra.of(rho, 1e-9)
        entry = sp.map(dec.lambda1)
        criteria.alpha_beta_inequality(rho, dec, 2, 1, Kind.II, tol=1e-9)
        criteria.entropic_inequality(rho, 2, tol=1e-9)
        criteria.ppt_check(rho, 1e-9)
        assert list(rho.cache) == [1e-9] and rho.cache[1e-9] is sp
        assert sp.map(dec.lambda1) is entry


class TestRefutedMapThroughTheApi:
    def plus_plus(self):
        # |+>|+>, a separable 2x2 state
        return states.DensityMatrix(np.full((4, 4), 0.25), 2, 2)

    def test_refuted_kossakowski_gives_no_verdict(self):
        # eps - I maps a sampled pure state out of the PSD cone; its
        # inequality read this separable state VIOLATED (margin -0.5)
        dec = maps.kossakowski_decomposition(np.zeros((2, 2)))
        assert dec.refutation is not None
        for _ in range(2):
            with pytest.raises(InvalidParameters, match="not positive"):
                criteria.alpha_beta_inequality(self.plus_plus(), dec, 1, 1)
        with pytest.raises(InvalidParameters, match="not positive"):
            scan.RegionCriterion("k", dec, np.inf).evaluate(
                self.plus_plus())

    def test_refutation_is_sampled_once(self, monkeypatch):
        dec = maps.kossakowski_decomposition(np.zeros((2, 2)))
        calls = []
        sample = maps.is_positive_sampled
        monkeypatch.setattr(maps, "is_positive_sampled",
                            lambda m: calls.append(m) or sample(m))
        for _ in range(3):
            with pytest.raises(InvalidParameters):
                dec.check_positive()
        assert calls == [dec.map]

    def test_unrefuted_kossakowski_is_evaluated(self):
        dec = maps.kossakowski_decomposition([[1, 1, 0], [0, 1, 1],
                                              [1, 0, 1]])
        assert dec.positivity_unverified and dec.refutation is None
        rho = states.DensityMatrix(np.eye(9) / 9, 3, 3)
        assert not criteria.alpha_beta_inequality(rho, dec, 2, 1).violated

    def test_certified_maps_are_not_sampled(self):
        dec = maps.reduction_decomposition(3)
        assert not dec.positivity_unverified and dec.refutation is None
