import hashlib
import io
import math

import numpy as np
import pytest

from sepcrit import criteria, maps, scan, states
from sepcrit.criteria import Kind
from sepcrit.errors import (
    DimensionMismatch,
    InvalidParameters,
    ParameterOutOfRange,
    ParseError,
    SepcritError,
    SingularOperand,
)
from sepcrit.formats import parse_matrix_file, write_matrix
from conftest import LIMIT_DRIFT


class TestKindRouting:
    def test_routes(self):
        assert scan.route_kind(2.0) is Kind.I
        assert scan.route_kind(1.0) is Kind.II
        assert scan.route_kind(0.5) is Kind.II
        assert scan.route_kind(-0.5) is Kind.III
        assert scan.route_kind(0.0) is Kind.II
        assert scan.route_kind(-1.0) is Kind.III
        assert scan.route_kind(math.inf) is Kind.I

    def test_out_of_range(self):
        for beta in (-2.0, -math.inf):
            with pytest.raises(ParameterOutOfRange, match="< -1"):
                scan.route_kind(beta)
        with pytest.raises(ParameterOutOfRange, match="not a number"):
            scan.route_kind(math.nan)


class TestParseMapSpec:
    def test_reduction(self):
        dec = scan.parse_map_spec("reduction d=3")
        assert dec.name == "reduction" and dec.d == 3

    def test_theta(self):
        dec = scan.parse_map_spec("theta a=2 c=1,1,1")
        assert dec.name == "theta" and dec.d == 3

    def test_phi_dk(self):
        dec = scan.parse_map_spec("phi_dk d=4 k=2")
        assert dec.indecomposable

    def test_tau_default_unitary(self):
        dec = scan.parse_map_spec("tau_u d=4")
        assert not dec.lambda2_is_identity

    @pytest.mark.parametrize("a", [
        "0,0,0,0", "0,0,1,1,0,0,0,1,0", "0,2,0,0,0,2,2,0,0",
        "0,1,0,0,0,1,1,0,0", "1,0.5,0,0,1,0.5,0.5,0,1"])
    def test_kossakowski_refuted_by_sampling(self, a):
        # phi1 is CP, but phi = phi1 - I maps a sampled pure state out of
        # the PSD cone; a verdict of such a map need not be sound
        dec = maps.kossakowski_decomposition([float(x) for x in a.split(",")])
        assert not maps.is_positive_sampled(dec.map)[0]
        with pytest.raises(InvalidParameters, match="not positive"):
            scan.parse_map_spec(f"kossakowski a={a}")

    def test_breuer_hall_takes_no_tol(self):
        for ctor in (maps.breuer_hall_decomposition,
                     maps.breuer_hall_tilde_decomposition):
            with pytest.raises(TypeError):
                ctor(d=4, tol=1e-6)

    def test_kossakowski_square(self):
        dec = scan.parse_map_spec("kossakowski a=0,1,1,1,0,1,1,1,0")
        assert dec.positivity_unverified

    def test_errors(self):
        with pytest.raises(InvalidParameters):
            scan.parse_map_spec("")
        with pytest.raises(InvalidParameters):
            scan.parse_map_spec("reduction 3")
        with pytest.raises(InvalidParameters):
            scan.parse_map_spec("kossakowski a=1,2,3")
        with pytest.raises(InvalidParameters):
            scan.parse_map_spec("nosuchmap d=3")

    def test_same_spec_same_maps(self):
        # every parse builds a new decomposition, with the same bits
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        again = scan.parse_map_spec("phi_dk d=3 k=1")
        assert again is not dec and again.map is not dec.map
        assert dec.map is dec.map
        for part in ("lambda1", "lambda2", "map"):
            assert np.array_equal(getattr(again, part).choi,
                                  getattr(dec, part).choi)

    def test_parser_is_the_maps_parser(self):
        assert scan.parse_map_spec is maps.parse_map_spec

    @pytest.mark.parametrize("spec,direct", [
        ("reduction d=3", lambda: maps.reduction_decomposition(3)),
        ("reduction d=4", lambda: maps.reduction_decomposition(4)),
        ("identity d=3", lambda: maps.identity_decomposition(3)),
        ("transposition d=3", lambda: maps.transposition_decomposition(3)),
        ("tau_u d=4", lambda: maps.tau_u_decomposition(
            maps.default_breuer_unitary(4))),
        ("tau_u d=6", lambda: maps.tau_u_decomposition(
            maps.default_breuer_unitary(6))),
        ("tau_u", lambda: maps.tau_u_decomposition(
            maps.default_breuer_unitary(4))),
        ("breuer_hall d=4", lambda: maps.breuer_hall_decomposition(d=4)),
        ("breuer_hall d=6", lambda: maps.breuer_hall_decomposition(d=6)),
        ("breuer_hall_tilde d=4",
         lambda: maps.breuer_hall_tilde_decomposition(d=4)),
        ("phi_dk d=3 k=1", lambda: maps.phi_dk_decomposition(3, 1)),
        ("phi_dk d=4 k=2", lambda: maps.phi_dk_decomposition(4, 2)),
        ("theta a=2 c=1,1,1", lambda: maps.theta_decomposition(2, [1, 1, 1])),
        ("theta a=2.5 c=0.5,1,2",
         lambda: maps.theta_decomposition(2.5, [0.5, 1, 2])),
        ("kossakowski a=1,1,0,0,1,1,1,0,1",
         lambda: maps.kossakowski_decomposition([[1, 1, 0], [0, 1, 1],
                                                 [1, 0, 1]])),
    ])
    def test_spec_matches_constructor(self, spec, direct):
        # the spec's keys are the constructor's parameters, and its maps
        # are the direct call's, bit for bit
        dec, ref = scan.parse_map_spec(spec), direct()
        assert (dec.name, dec.d, dec.indecomposable,
                dec.positivity_unverified) == (
            ref.name, ref.d, ref.indecomposable, ref.positivity_unverified)
        for part in ("lambda1", "lambda2", "map"):
            assert np.array_equal(getattr(dec, part).choi,
                                  getattr(ref, part).choi), (spec, part)

    # malformed specs: none may escape as a bare TypeError, ValueError or
    # IndexError, or drop a key silently
    BAD_SPECS = (
        "", "reduction 3", "kossakowski a=1,2,3", "nosuchmap d=3",
        # unknown or missing keys (bound against the constructor)
        "reduction x=3", "identity", "tau_u d=4 x=1", "phi_dk d=3",
        "theta a=2", "kossakowski",
        # duplicate keys
        "reduction d=3 d=4", "theta a=2 a=3 c=1,1,1",
        # d and k are integers, d >= 1
        "reduction d=3.5", "phi_dk d=3 k=1.5", "reduction d=1e9",
        "reduction d=0", "reduction d=-2", "phi_dk d=3 k=x",
        # values that are not finite numbers
        "theta a=x c=1,1,1", "reduction d=", "breuer_hall d=4 tol=x",
        "theta a=2 c=1,,1", "theta a=inf c=1,1,1", "theta a=nan c=1,1,1",
        # theta's c is a list
        "theta a=2 c=1", "kossakowski a=1",
    )

    def test_bad_spec_raises_on_every_call(self):
        for _ in range(3):
            for spec in self.BAD_SPECS:
                with pytest.raises(InvalidParameters):
                    scan.parse_map_spec(spec)

    def test_spec_matrix_needs_its_shape(self):
        # U is a constructor parameter, but a list is not a matrix
        with pytest.raises(DimensionMismatch):
            scan.parse_map_spec("breuer_hall U=0,1,-1,0")

    @pytest.mark.parametrize("spec,key", [
        ("reduction x=3", "'x'"), ("identity", "'d'"),
        ("tau_u d=4 x=1", "'x'"), ("reduction d=3 d=4", "'d'"),
        ("reduction d=3.5", "d="), ("phi_dk d=3 k=1.5", "k="),
        ("reduction d=0", "d="), ("theta a=x c=1,1,1", "a="),
        ("breuer_hall d=4 tol=x", "tol="), ("theta a=2 c=1", "c "),
        ("breuer_hall d=4 tol=1e-6", "'tol'"),
        ("breuer_hall_tilde d=4 tol=1e-6", "'tol'"),
    ])
    def test_bad_spec_error_names_the_key(self, spec, key):
        with pytest.raises(InvalidParameters, match=key):
            scan.parse_map_spec(spec)

    @pytest.mark.parametrize("spec,key", [
        ("theta a=40 c=" + ",".join(["1"] * 33), "c"),
        ("kossakowski a=" + ",".join(["0"] * 33 ** 2), "a"),
    ])
    def test_length_keys_bound_d(self, spec, key, monkeypatch):
        # c and a set d by their length: d = 33 exceeds MAX_SPEC_D, and
        # the spec is rejected before any Choi matrix is built
        def no_choi(*args):
            raise AssertionError("a Choi matrix was built")

        monkeypatch.setattr(maps, "map_from_action", no_choi)
        assert maps.MAX_SPEC_D == 32
        with pytest.raises(InvalidParameters,
                           match=f"map parameter {key} has"):
            scan.parse_map_spec(spec)


def gamma_verdicts(alpha, beta, dec, kind, sp):
    """table1's violation test on the states of sp (states of the 3x3
    family, at BISECTION_CRITERION_TOL): the (alpha, beta)-inequality
    evaluated on the whole stack."""
    crit = scan.RegionCriterion("gamma", dec, alpha, beta, kind)
    return [res.violated for res in crit.verdicts(sp)]


def sequential_table1(alpha, beta, map_spec, kind, bisect_tol):
    """table1 with each boundary bisected on its own, one midpoint at a
    time as a stack of one, on a fresh grid stack: the reference for the
    paired bisection and the cached grid."""
    dec = scan.parse_map_spec(map_spec)

    def verdicts(gammas):
        return gamma_verdicts(alpha, beta, dec, kind, criteria.Spectra(
            states.horodecki_stack(gammas), scan.BISECTION_CRITERION_TOL))

    def bisect(false_side, true_side):
        while abs(true_side - false_side) > bisect_tol:
            mid = 0.5 * (false_side + true_side)
            if verdicts([mid])[0]:
                true_side = mid
            else:
                false_side = mid
        return 0.5 * (false_side + true_side)

    grid = np.arange(2.0, 5.0 + scan.GRID_STEP / 2, scan.GRID_STEP)
    grid[-1] = 5.0
    mask = verdicts(grid)
    if not any(mask):
        return scan.GammaInterval(empty=True)
    i0 = mask.index(True)
    i1 = len(mask) - 1 - mask[::-1].index(True)
    lower_open, upper_open = i0 > 0, i1 < len(grid) - 1
    lower = bisect(grid[i0 - 1], grid[i0]) if lower_open else 2.0
    upper = bisect(grid[i1 + 1], grid[i1]) if upper_open else 5.0
    return scan.GammaInterval(lower, upper, lower_open, upper_open)


TABLE1_ALPHAS = (6.0, 7.0, 10.0, 13.0, math.inf)


def outcome(call, *args):
    """call(*args), or the type and message of the SepcritError it
    raised."""
    try:
        return call(*args)
    except SepcritError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestTable1Bisection:
    @pytest.mark.parametrize("map_spec", ["phi_dk d=3 k=1",
                                          "theta a=2 c=1,1,1"])
    def test_paired_equals_sequential(self, map_spec):
        # alpha = 7, 10 bisect two boundaries, 13 and inf one, 6 none;
        # bisect_tol = 1.0 takes no step
        open_ends = set()
        for alpha in TABLE1_ALPHAS:
            for beta in (1.0, 0.5):
                for bisect_tol in (1e-6, 1e-4, 3e-3, 1.0):
                    args = (alpha, beta, map_spec, None, bisect_tol)
                    got = outcome(scan.table1, *args)
                    want = outcome(sequential_table1, *args)
                    assert got == want and repr(got) == repr(want), args
                    if isinstance(got, scan.GammaInterval):
                        open_ends.add(-1 if got.empty else
                                      got.lower_open + got.upper_open)
        assert open_ends >= {-1, 1, 2}

    def test_tree_equals_sequential(self):
        # bisect_tol 6e-3 to 1e-6 takes 1 to 14 levels, so trees of every
        # depth up to TREE_DEPTH; kinds I-IV, and transposition's
        # lambda2 is not the identity.  Midpoints a one-bracket
        # bisection would not visit never raise where it returns.
        seen = set()
        for map_spec in ("phi_dk d=3 k=1", "transposition d=3"):
            for alpha in (7.0, 10.0, 13.0, math.inf):
                for beta in (-0.5, 0.5, 1.0, 2.0):
                    for kind in ("I", "II", "III", "IV"):
                        for bisect_tol in (6e-3, 3e-3, 1e-3, 1e-4, 1e-5,
                                           1e-6):
                            args = (alpha, beta, map_spec, kind, bisect_tol)
                            got = outcome(scan.table1, *args)
                            want = outcome(sequential_table1, *args)
                            assert repr(got) == repr(want), args
                            seen.add(got.split(":")[0] if isinstance(got, str)
                                     else -1 if got.empty else
                                     got.lower_open + got.upper_open)
        assert seen >= {-1, 1, 2, "CommutativityViolated",
                        "ParameterOutOfRange"}

    @pytest.mark.parametrize("width", ["0x1.47ae147ae0000p-12",
                                       "0x1.47ae147ac0000p-17"])
    def test_each_bracket_stops_at_its_own_width(self, width):
        # at alpha = 7, width is the upper bracket's width after 5 (10)
        # levels, a level inside a tree, where the lower bracket is wider
        # by a few ulps: at bisect_tol = width the upper one stops inside
        # the tree while the lower one takes one more level
        args = (7.0, 1.0, "phi_dk d=3 k=1", None, float.fromhex(width))
        assert repr(scan.table1(*args)) == repr(sequential_table1(*args))

    def test_grid_built_once_per_process(self, monkeypatch):
        sizes = []

        def counting_stack(gammas):
            sizes.append(len(gammas))
            return states.horodecki_stack(gammas)

        monkeypatch.setattr(scan, "horodecki_stack", counting_stack)
        scan._grid_spectra.cache_clear()
        for _ in range(2):
            for alpha in TABLE1_ALPHAS:
                scan.table1(alpha, 1.0, "phi_dk d=3 k=1")
        # one grid for the spec; then at bisect_tol 1e-4 seven levels per
        # row, as a tree of 4 levels (15 midpoints per bracket) and one
        # of 3 (7), the trees of alpha = 7 and 10 stacked in pairs
        assert sizes == [301] + 2 * ([30, 14] * 2 + [15, 7] * 2)
        assert scan._grid_spectra.cache_info().misses == 1

    def test_cold_and_warm_rows_equal(self):
        specs = ("phi_dk d=3 k=1", "theta a=2 c=2,1,1")
        cold = {}
        for spec in specs:
            scan._grid_spectra.cache_clear()
            for alpha in TABLE1_ALPHAS:
                cold[alpha, spec] = sequential_table1(alpha, 1.0, spec, None,
                                                      1e-4)
                assert scan.table1(alpha, 1.0, spec) == cold[alpha, spec]
        for alpha in reversed(TABLE1_ALPHAS):
            for spec in specs:
                assert repr(tuple(scan.table1(alpha, 1.0, spec))) == \
                    repr(tuple(cold[alpha, spec]))

    def test_cache_is_bounded(self):
        specs = ["reduction d=3", "identity d=3", "transposition d=3",
                 "phi_dk d=3 k=1", "phi_dk d=3 k=2", "theta a=2 c=1,1,1",
                 "theta a=2 c=2,1,1", "theta a=2.5 c=1,1,1",
                 "theta a=2 c=0.5,1,2", "kossakowski a=0,1,1,1,0,1,1,1,0",
                 "kossakowski a=1,1,0,0,1,1,1,0,1"]
        assert len(specs) > scan.GRID_CACHE_SIZE
        scan._grid_spectra.cache_clear()
        for spec in specs:
            scan.table1(math.inf, 1.0, spec)
            info = scan._grid_spectra.cache_info()
            assert info.currsize <= info.maxsize == scan.GRID_CACHE_SIZE
        assert info.currsize == scan.GRID_CACHE_SIZE

    def test_power_caches_are_bounded(self):
        # the grid Spectra lives as long as the process; without a bound
        # its caches kept one array per alpha and beta ever asked for
        scan._grid_spectra.cache_clear()
        for i in range(40):
            scan.table1(6 + i / 4, 0.5 + i / 100, "phi_dk d=3 k=1")
        _, _, sp = scan._grid_spectra("phi_dk d=3 k=1")
        caches = [sp._powers] + [cache for entry in sp._maps.values()
                                 for cache in (entry._powers,
                                               entry._pairings)]
        assert len(caches) == 3
        assert all(0 < len(cache) <= criteria.POWER_CACHE_SIZE
                   for cache in caches)

    def test_entry_keeps_its_maps(self):
        # other parses of the spec build other maps; the entry's Spectra
        # still holds one map entry, not two
        scan._grid_spectra.cache_clear()
        scan.table1(7.0, 1.0, "phi_dk d=3 k=1")
        _, dec, sp = scan._grid_spectra("phi_dk d=3 k=1")
        for i in range(64):
            scan.parse_map_spec(f"theta a=2 c=1,1,{1 + i / 100}")
        assert scan.parse_map_spec("phi_dk d=3 k=1") is not dec
        scan.table1(7.0, 1.0, "phi_dk d=3 k=1")
        assert list(sp._maps) == [dec.lambda1]

    def test_cached_grid_is_read_only(self):
        grid, _, sp = scan._grid_spectra("phi_dk d=3 k=1")
        assert np.array_equal(sp.matrix, states.horodecki_stack(grid).matrix)
        for arr in (grid, sp.matrix, sp.eigenvalues):
            with pytest.raises(ValueError):
                arr[0] = 0
        assert (grid[0], grid[-1], len(grid)) == (2.0, 5.0, 301)

    def test_bad_spec_raises_every_call(self):
        good = scan.table1(7.0, 1.0, "phi_dk d=3 k=1")
        for _ in range(3):
            with pytest.raises(DimensionMismatch):
                scan.table1(7.0, 1.0, "reduction d=4")
        assert scan.table1(7.0, 1.0, "phi_dk d=3 k=1") == good
        assert (good.lower, good.upper) == (3.190664062499975,
                                            3.9419921874999586)


class TestTable1:
    def test_alpha_six_empty(self):
        assert scan.table1(6, 1).empty

    def test_alpha_seven_bracketed(self):
        iv = scan.table1(7, 1, bisect_tol=1e-4)
        assert abs(iv.lower - 3.191) <= 5e-3
        assert abs(iv.upper - 3.942) <= 5e-3
        assert iv.lower_open and iv.upper_open

    def test_endpoints_are_brackets(self):
        iv = scan.table1(7, 1, bisect_tol=1e-4)
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        from sepcrit.criteria import alpha_beta_inequality

        def violated(g):
            return alpha_beta_inequality(
                states.horodecki_state(g), dec, 7, 1, Kind.II, tol=1e-13
            ).violated

        assert not violated(iv.lower - 1e-4) and violated(iv.lower + 1e-4)
        assert violated(iv.upper - 1e-4) and not violated(iv.upper + 1e-4)

    def test_infinite_alpha_upper_closed(self):
        iv = scan.table1(math.inf, 1)
        assert not iv.upper_open and iv.upper == 5.0
        assert abs(iv.lower - 3.0) <= 5e-3

    @pytest.mark.parametrize("alpha", [-math.inf, math.nan])
    def test_rejects_other_non_finite_alpha(self, alpha):
        with pytest.raises(ParameterOutOfRange):
            scan.table1(alpha, 1)

    def test_intervals_are_pinned(self):
        # bit-exact boundaries; each row runs twice, the second time on
        # the parsed map spec of the first
        expected = {
            6: None,
            7: (3.190664062499975, 3.9419921874999586, True, True),
            10: (3.0157421874999786, 4.683320312499943, True, True),
            13: (3.0019140624999787, 5.0, True, False),
            math.inf: (3.0000390624999786, 5.0, True, False),
        }
        for _ in range(2):
            for alpha, want in expected.items():
                iv = scan.table1(alpha, 1.0, "phi_dk d=3 k=1")
                if want is None:
                    assert iv.empty
                else:
                    assert (iv.lower, iv.upper, iv.lower_open,
                            iv.upper_open) == want

    def test_infinite_alpha_intervals_are_pinned(self):
        # alpha = inf is the limit witness at BISECTION_CRITERION_TOL;
        # the reprs are those of the limit witness's sign at the default tol
        nan = math.nan
        expected = {
            "reduction d=3": (nan, nan, True, True, True),
            "identity d=3": (nan, nan, True, True, True),
            "transposition d=3": (nan, nan, True, True, True),
            "phi_dk d=3 k=1": (3.0000390624999786, 5.0, True, False, False),
            "phi_dk d=3 k=2": (nan, nan, True, True, True),
            "theta a=2 c=1,1,1": (3.0000390624999786, 5.0, True, False,
                                  False),
            "theta a=2 c=2,1,1": (3.500039062499968, 5.0, True, False, False),
            "theta a=2.5 c=1,1,1": (4.000039062499957, 5.0, True, False,
                                    False),
            "theta a=2 c=0.5,1,2": (3.285742187499973, 5.0, True, False,
                                    False),
            "kossakowski a=0,1,1,1,0,1,1,1,0": (nan, nan, True, True, True),
        }
        for spec, want in expected.items():
            iv = scan.table1(math.inf, 1.0, spec)
            got = (float(iv.lower), float(iv.upper), iv.lower_open,
                   iv.upper_open, iv.empty)
            assert repr(got) == repr(want), spec
        # maps that sampling shows are not positive give no range
        for spec in ("kossakowski a=0,0,1,1,0,0,0,1,0",
                     "kossakowski a=0,2,0,0,0,2,2,0,0",
                     "kossakowski a=0,1,0,0,0,1,1,0,0"):
            with pytest.raises(InvalidParameters, match="not positive"):
                scan.table1(math.inf, 1.0, spec)

    def test_rejects_too_fine_tol(self):
        # NaN and inf would end the bisection before its first step,
        # giving the grid midpoints (3.1950, 3.9450)
        for bisect_tol in (1e-8, math.nan, math.inf):
            with pytest.raises(InvalidParameters):
                scan.table1(7, 1, bisect_tol=bisect_tol)

    @pytest.mark.parametrize("beta,kind", [(7.0, None), (-0.5, None),
                                           (1.0, Kind.IV), (1.0, Kind.I),
                                           (math.nan, None)])
    def test_infinite_alpha_needs_beta_one_kind_two(self, beta, kind):
        # alpha = inf is the limit of the same inequality for every beta
        # and kind.  phi_dk's lambda2 is the identity, so kind I at beta
        # 1 and 7 reads kind II's range; kind IV detects nothing here, as
        # at alpha = 7 and 13; kind III's X2 = rho is singular on this
        # family at every alpha; a NaN beta is refused
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        sp = criteria.Spectra(states.horodecki_stack([3.5]),
                              scan.BISECTION_CRITERION_TOL)
        error = {-0.5: SingularOperand}.get(beta, ParameterOutOfRange)
        if beta >= 1:
            iv = scan.table1(math.inf, beta, kind=kind)
            detects = kind is not Kind.IV
            assert iv == (scan.table1(math.inf, 1.0) if detects
                          else scan.GammaInterval(empty=True))
            assert gamma_verdicts(math.inf, beta, dec, kind, sp) == [detects]
        else:
            with pytest.raises(error):
                scan.table1(math.inf, beta, kind=kind)
            with pytest.raises(error):
                gamma_verdicts(math.inf, beta, dec, kind, sp)
        assert scan.table1(math.inf, 1.0, kind=Kind.II) == \
            scan.table1(math.inf, 1.0)

    @pytest.mark.parametrize("alpha", [7.0, math.inf])
    def test_grid_verdicts_equal_fresh_states(self, alpha):
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        grid = np.arange(2.0, 5.005, 0.01)
        grid[-1] = 5.0
        stacked = gamma_verdicts(alpha, 1.0, dec, None, criteria.Spectra(
            states.horodecki_stack(grid), scan.BISECTION_CRITERION_TOL))
        if alpha == math.inf:
            fresh = [criteria.limit_witness(states.horodecki_state(g),
                                            dec.map) < 0 for g in grid]
        else:
            fresh = [criteria.alpha_beta_inequality(
                states.horodecki_state(g), dec, alpha, 1.0, Kind.II,
                tol=scan.BISECTION_CRITERION_TOL).violated for g in grid]
        assert stacked == fresh
        assert 0 < sum(fresh) < len(grid)

    @pytest.mark.parametrize("tol", [1e-9, scan.BISECTION_CRITERION_TOL])
    def test_limit_verdicts_are_the_witness_sign(self, tol):
        dec = scan.parse_map_spec("phi_dk d=3 k=1")
        grid = np.arange(2.0, 5.005, 0.01)
        grid[-1] = 5.0
        sp = criteria.Spectra(states.horodecki_stack(grid), tol)
        got = scan.RegionCriterion("limit", dec, math.inf).verdicts(sp)
        assert len(got) == len(grid)
        for g, res in zip(grid, got):
            witness = criteria.limit_witness(states.horodecki_state(g),
                                             dec.map, tol)
            assert res.violated == (witness < 0)
            # the limit walks lambda1's weights minus lambda2's, the
            # witness dec.map's: equal up to rounding (LIMIT_DRIFT)
            assert abs(res.lhs - witness) <= LIMIT_DRIFT * max(1.0,
                                                               abs(witness))
            assert (res.rhs, res.margin) == (0.0, res.lhs)
            assert (res.kind, res.tol) == (Kind.II, tol)
        assert 0 < sum(res.violated for res in got) < len(grid)

    def test_str_formats(self):
        assert str(scan.GammaInterval(empty=True)) == "--"
        assert str(scan.GammaInterval(3.0, 5.0, True, False)) == \
            "(3.0000, 5.0000]"


class TestSO3Region:
    def _criteria(self):
        return [scan.RegionCriterion(
            "red", maps.reduction_decomposition(4), 3, 1, Kind.II
        )]

    def test_smallest_grid(self):
        rows = list(scan.so3_region(0.2, self._criteria(), 2))
        assert len(rows) == scan.so3_grid_count(0.2, 2) == 3
        assert [(r.q, r.r) for r in rows] == [(0.0, 0.0), (0.0, 0.5),
                                              (0.5, 0.0)]

    def test_grid_count_matches(self):
        # 1 - 0 - 0.8 - 0.2 rounds below zero, inside -1e-12; resolutions
        # 10 and 30 have such points for p = 0, 0.1 and (at 30) 0.2
        r, s = dict(scan.so3_grid(0.0, 10))[0.8][-1]
        assert r == 0.2 and -1e-12 <= s < 0
        assert scan.so3_grid_count(0.2, 60) == 1225
        for p in (0.0, 0.1, 0.2, 1.0):
            for resolution in (2, 7, 10, 30):
                # the double loop the scan used to run, as an independent
                # count
                expected = sum(
                    1.0 - p - i / resolution - j / resolution >= -1e-12
                    for i in range(resolution + 1)
                    for j in range(resolution + 1)
                )
                assert scan.so3_grid_count(p, resolution) == expected
                if resolution <= 10:
                    rows = list(scan.so3_region(p, self._criteria(),
                                                resolution))
                    assert len(rows) == expected

    @pytest.mark.parametrize("resolution", [
        2.5, 2.0, float("nan"), float("inf"), "4", None, True, False, 1, 0,
        -3])
    def test_resolution_is_an_integer_of_at_least_2(self, resolution):
        # 2.5 and nan raised a bare TypeError from range()
        for call in (
                lambda: scan.so3_region(0.2, self._criteria(), resolution),
                lambda: scan.so3_grid_count(0.2, resolution),
                lambda: list(scan.so3_grid(0.2, resolution))):
            with pytest.raises(InvalidParameters,
                               match="resolution must be an integer >= 2"):
                call()
        assert scan.so3_grid_count(0.2, np.int64(2)) == 3

    @pytest.mark.parametrize("p,resolution", [(0.2, 7), (0.1, 10),
                                              (1.0, 3)])
    def test_rows_equal_fresh_per_point_evaluation(self, p, resolution):
        crit = [
            scan.RegionCriterion("bh", maps.breuer_hall_decomposition(d=4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("red", maps.reduction_decomposition(4), 2,
                                 0.5, Kind.II),
            scan.RegionCriterion("tau", maps.tau_u_decomposition(
                maps.default_breuer_unitary(4)), 2, 2, Kind.IV),
            scan.RegionCriterion("ent", None, 4),
        ]
        rows = list(scan.so3_region(p, crit, resolution))
        assert len(rows) == scan.so3_grid_count(p, resolution)
        for row in rows:
            rho = states.so3_state(p, row.q, row.r)
            assert row.ppt == (criteria.ppt_check(rho) >= -1e-9)
            for c in crit:
                fresh = c.evaluate(rho)
                got = row.results[c.label]
                assert (got.lhs, got.rhs, got.margin, got.violated) == \
                    (fresh.lhs, fresh.rhs, fresh.margin, fresh.violated)

    def test_rows_carry_results(self):
        row = next(iter(scan.so3_region(0.2, self._criteria(), 2)))
        assert set(row.results) == {"red"}
        assert isinstance(row.ppt, bool)

    def test_duplicate_labels_rejected(self):
        crit = self._criteria() * 2
        with pytest.raises(InvalidParameters):
            list(scan.so3_region(0.2, crit, 2))

    def test_invalid_p(self):
        with pytest.raises(InvalidParameters):
            list(scan.so3_region(1.5, self._criteria(), 2))

    def test_arguments_are_checked_by_the_call(self):
        # no row is pulled: a caller that writes before it iterates
        # writes nothing for a bad argument
        crit = self._criteria()
        for args in [(2.0, crit, 4), (0.2, crit, 1), (0.2, crit * 2, 4)]:
            with pytest.raises(InvalidParameters):
                scan.so3_region(*args)
        with pytest.raises(ParameterOutOfRange):
            scan.so3_region(0.2, crit, 4, math.nan)

    def test_csv_digest_is_pinned(self):
        # the benchmark's five criteria at p = 0.2, resolution 20: any bit
        # of a margin that moves changes this digest
        bh = maps.breuer_hall_decomposition(d=4)
        bht = maps.breuer_hall_tilde_decomposition(d=4)
        red = maps.reduction_decomposition(4)
        tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        crit = [
            scan.RegionCriterion("bh", bh, 3, 1, Kind.II),
            scan.RegionCriterion("tau", tau, 3, 1, Kind.II),
            scan.RegionCriterion("bht", bht, 3, 1, Kind.II),
            scan.RegionCriterion("red", red, 3, 1, Kind.II),
            scan.RegionCriterion("ent", None, 4),
        ]
        labels = [c.label for c in crit]
        lines = [scan.region_csv_header(labels)] + [
            scan.region_csv_row(row, labels)
            for row in scan.so3_region(0.2, crit, 20)
        ]
        text = "\n".join(lines) + "\n"
        assert len(lines) == 1 + scan.so3_grid_count(0.2, 20) == 154
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3c00bc502a0028af73e95223c8ad02e6c2a5510e547f195a0a9eb7df1df953b5")

    def test_csv_digest_at_small_tol_is_pinned(self):
        # the same scan with every criterion and the PPT flag at tol 1e-12;
        # at resolution 20 no printed digit moves, so the digest is that of
        # the default tol
        tol = 1e-12
        bh = maps.breuer_hall_decomposition(d=4)
        bht = maps.breuer_hall_tilde_decomposition(d=4)
        red = maps.reduction_decomposition(4)
        tau = maps.tau_u_decomposition(maps.default_breuer_unitary(4))
        crit = [
            scan.RegionCriterion("bh", bh, 3, 1, Kind.II),
            scan.RegionCriterion("tau", tau, 3, 1, Kind.II),
            scan.RegionCriterion("bht", bht, 3, 1, Kind.II),
            scan.RegionCriterion("red", red, 3, 1, Kind.II),
            scan.RegionCriterion("ent", None, 4),
        ]
        labels = [c.label for c in crit]
        lines = [scan.region_csv_header(labels)] + [
            scan.region_csv_row(row, labels)
            for row in scan.so3_region(0.2, crit, 20, tol)
        ]
        text = "\n".join(lines) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3c00bc502a0028af73e95223c8ad02e6c2a5510e547f195a0a9eb7df1df953b5")

    def test_csv_roundtrip_shape(self):
        crit = self._criteria()
        header = scan.region_csv_header(["red"])
        assert header == "q,r,s,ppt,red_violated,red_margin"
        row = next(iter(scan.so3_region(0.2, crit, 2)))
        cells = scan.region_csv_row(row, ["red"]).split(",")
        assert len(cells) == 6

    @staticmethod
    def _five_criteria():
        return [
            scan.RegionCriterion("bh", maps.breuer_hall_decomposition(d=4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("tau", maps.tau_u_decomposition(
                maps.default_breuer_unitary(4)), 2, 2, Kind.IV),
            scan.RegionCriterion("bht",
                                 maps.breuer_hall_tilde_decomposition(d=4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("red", maps.reduction_decomposition(4), 2,
                                 0.5, Kind.II),
            scan.RegionCriterion("ent", None, 4),
        ]

    def test_csv_cells_are_the_results_on_two_stacks(self):
        # resolution 30 gives 325 points, so the rows span two stacks,
        # and the rows of each stack share one table of cells per labels
        # tuple: every order, subset and alternation must read the
        # row's own results
        crit = self._five_criteria()
        labels = [c.label for c in crit]
        rows = list(scan.so3_region(0.2, crit, 30))
        assert len(rows) == 325 > scan.STACK_STATES
        orders = [labels, labels[::-1], ["ent", "bh"], ["red"], [],
                  ["tau", "tau"]]
        hits = set()
        for k, row in enumerate(rows):
            assert len(row.results) == len(labels)
            assert list(row.results) == labels
            # a different order first on alternate rows
            for order in (orders if k % 2 else orders[::-1]):
                want = tuple(x for label in order for x in (
                    row.results[label].violated, row.results[label].margin))
                assert tuple(row.results.cells(order)) == want
                assert scan.region_csv_row(row, order) == ",".join(
                    ["%.9g" % row.q, "%.9g" % row.r, "%.9g" % row.s,
                     str(int(row.ppt))] +
                    [str(int(x)) if isinstance(x, bool) else "%.9g" % x
                     for x in want])
            hits |= {label for label in labels
                     if row.results[label].violated}
        assert {"bh", "red", "ent"} <= hits
        with pytest.raises(KeyError):
            rows[0].results.cells(["nope"])

    def test_criteria_may_be_an_iterator(self):
        # the label check used to exhaust a generator, so every row came
        # back with no results and region_csv_row raised a bare KeyError
        crit = self._five_criteria()
        labels = [c.label for c in crit]
        want = [scan.region_csv_row(row, labels)
                for row in scan.so3_region(0.2, crit, 4)]
        rows = list(scan.so3_region(0.2, (c for c in crit), 4))
        assert all(list(row.results) == labels for row in rows)
        assert [scan.region_csv_row(row, labels) for row in rows] == want
        rho = states.so3_state(0.2, 0.3, 0.1)
        assert scan.check_state(rho, iter(crit), include_ppt=True) == \
            scan.check_state(rho, crit, include_ppt=True)
        for nothing in ((c for c in []), iter(())):
            with pytest.raises(InvalidParameters, match="nothing to evaluate"):
                scan.check_state(rho, nothing)


class TestCheckState:
    def test_bell_violation(self):
        from conftest import bell_state

        rho = states.DensityMatrix(bell_state(2), 2, 2)
        crit = [scan.RegionCriterion(
            "red", maps.reduction_decomposition(2), 1, 2, Kind.I
        )]
        rows = scan.check_state(rho, crit, include_ppt=True)
        labels = [label for label, _ in rows]
        assert labels == ["ppt", "red"]
        assert all(res.violated for _, res in rows)

    def test_maximally_mixed_clean(self):
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        crit = [scan.RegionCriterion(
            "red", maps.reduction_decomposition(2), 1, 2, Kind.I
        )]
        rows = scan.check_state(rho, crit, include_ppt=True)
        assert not any(res.violated for _, res in rows)

    def test_results_digest_is_pinned(self):
        # the benchmark's check criteria on 20 seeded 3x3 states, half
        # separable and half full-rank random: repr keeps every bit of
        # lhs, rhs and margin, so any bit that moves changes this digest
        crit = [
            scan.RegionCriterion(spec.split()[0], scan.parse_map_spec(spec),
                                 1.0, 1.0)
            for spec in ("reduction d=3", "phi_dk d=3 k=1",
                         "transposition d=3")
        ] + [scan.RegionCriterion("entropic", None, 2.0)]
        rng = np.random.default_rng(2026)
        lines = []
        for j in range(20):
            if j % 2 == 0:
                rho = states.random_separable(3, 3, 4, rng)
            else:
                rho = states.DensityMatrix(states.random_density(9, rng), 3,
                                           3)
            for label, res in scan.check_state(rho, crit, include_ppt=True):
                lines.append(repr((label, res.lhs, res.rhs, res.margin,
                                   res.violated)))
        assert len(lines) == 100
        assert any("True" in line for line in lines)
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "ac8674edac9f286a95fd27f80da26f04f7fa44843970c388f691c278318c8685")

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_check_state_is_a_region_row(self, tol):
        crit = [
            scan.RegionCriterion("bh", maps.breuer_hall_decomposition(d=4),
                                 3, 1, Kind.II),
            scan.RegionCriterion("red", maps.reduction_decomposition(4), 2,
                                 0.5, Kind.II),
            scan.RegionCriterion("tau", maps.tau_u_decomposition(
                maps.default_breuer_unitary(4)), 2, 2, Kind.IV),
            scan.RegionCriterion("ent", None, 4),
        ]
        rows = list(scan.so3_region(0.2, crit, 7, tol))
        assert any(not row.ppt for row in rows)
        for row in rows:
            rho = states.so3_state(0.2, row.q, row.r)
            got = scan.check_state(rho, crit, include_ppt=True, tol=tol)
            assert [label for label, _ in got] == \
                ["ppt"] + [c.label for c in crit]
            (_, ppt), *results = got
            assert ppt.kind is Kind.PPT
            assert all(res.tol == tol for _, res in got)
            assert row.ppt is not ppt.violated
            for (label, res), c in zip(results, crit):
                want = row.results[c.label]
                assert repr(tuple(res)) == repr(tuple(want)), label

    @pytest.mark.parametrize("tol", [1e-9, 1e-12])
    def test_one_state_paths_agree_with_kind_routed(self, rng, tol):
        # acceptance test 7's maps and (alpha, beta) pairs with no kind:
        # the one-state function, RegionCriterion.evaluate and check_state
        # are one path, bit for bit
        decs3 = [maps.reduction_decomposition(3),
                 maps.phi_dk_decomposition(3, 1),
                 maps.theta_decomposition(2, [1, 1, 1]),
                 maps.transposition_decomposition(3)]
        decs4 = [maps.reduction_decomposition(4),
                 maps.breuer_hall_decomposition(d=4),
                 maps.breuer_hall_tilde_decomposition(d=4),
                 maps.phi_dk_decomposition(4, 2),
                 maps.tau_u_decomposition(maps.default_breuer_unitary(4))]
        pairs = sorted({(a, b) for a in (1, 2, 5, 10)
                        for b in (2, 3, 0.5, 1)} |
                       {(a, b) for a in (1, 2) for b in (1, 2)} |
                       {(a, -0.5) for a in (1, 2)})
        for (dA, dB), decs in (((3, 3), decs3), ((4, 4), decs4)):
            rho = states.random_separable(dA, dB, 4, rng)
            for dec in decs:
                for a, b in pairs:
                    if scan.route_kind(b) is Kind.I and \
                            not dec.lambda2_is_identity:
                        continue  # commutativity hypothesis not satisfied
                    crit = scan.RegionCriterion("c", dec, a, b)
                    try:
                        want = criteria.alpha_beta_inequality(rho, dec, a, b,
                                                              tol=tol)
                    except SingularOperand:
                        with pytest.raises(SingularOperand):
                            crit.evaluate(rho, tol)
                        continue
                    (_, row), = scan.check_state(rho, [crit], tol=tol)
                    assert want.kind is scan.route_kind(b)
                    for got in (crit.evaluate(rho, tol), row):
                        assert repr(tuple(got)) == repr(tuple(want))

    def test_ppt_rhs_is_positive_zero(self, rng):
        rho = states.random_separable(3, 3, 4, rng)
        (label, res), = scan.check_state(rho, [], include_ppt=True)
        assert label == "ppt" and res.kind is Kind.PPT
        assert (res.lhs, res.margin) == (criteria.ppt_check(rho),) * 2
        assert res.rhs == 0.0 and math.copysign(1.0, res.rhs) == 1.0
        sp = criteria.Spectra(states.so3_stack(0.2, 0.3, [0.1, 0.4]))
        assert [math.copysign(1.0, res.rhs)
                for res in scan.PPT().verdicts(sp)] == [1.0, 1.0]


class TestChoiDump:
    def test_reduction_not_cp(self):
        m, cp, min_eig = scan.choi_dump("reduction d=3")
        assert m.d == 3 and not cp
        assert abs(min_eig + 2.0) <= 1e-12

    def test_identity_cp(self):
        _, cp, _ = scan.choi_dump("identity d=3")
        assert cp

    def test_theta_parts(self):
        _, cp_full, _ = scan.choi_dump("theta a=2 c=1,1,1", "map")
        _, cp_one, _ = scan.choi_dump("theta a=2 c=1,1,1", "1")
        assert not cp_full and cp_one

    def test_bad_part(self):
        with pytest.raises(InvalidParameters):
            scan.choi_dump("reduction d=3", "3")


class TestMatrixFormat:
    def test_roundtrip(self, rng):
        rho = states.random_separable(2, 3, 3, rng)
        buf = io.StringIO()
        write_matrix(buf, rho.matrix, 2, 3)
        M, dA, dB = parse_matrix_file(io.StringIO(buf.getvalue()))
        assert (dA, dB) == (2, 3)
        assert np.array_equal(M, rho.matrix)

    def test_comments_skipped(self):
        text = "# comment\n1 2\n1,0 0,0\n# mid comment\n0,0 0,-1\n"
        M, dA, dB = parse_matrix_file(io.StringIO(text))
        assert (dA, dB) == (1, 2)
        assert M[1, 1] == -1j

    def test_parse_errors_name_lines(self):
        for header in ("bogus header", "0 3"):
            with pytest.raises(ParseError, match="line 1"):
                parse_matrix_file(io.StringIO(header + "\n"))
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix_file(io.StringIO("1 2\n1,0 0,0\n0,0 bad\n"))
        with pytest.raises(ParseError, match="line 2"):
            parse_matrix_file(io.StringIO("1 2\n1,0\n0,0 0,0\n"))
        with pytest.raises(ParseError):
            parse_matrix_file(io.StringIO(""))

    def test_parse_is_bit_exact(self, rng):
        specials = ["0.10000000000000001", "-0.0", "inf", "-inf", "nan",
                    "-nan", "+inf", "Infinity", "1e400", "1e-400",
                    "5e-324", "-5e-324", "4.9406564584124654e-324",
                    "1.7976931348623157e+308", "2.2250738585072014e-308", "0"]
        floats = specials + [f"{x:.17g}" for x in rng.standard_normal(16)]
        pairs = [floats[k:k + 2] for k in range(0, 32, 2)]
        # the per-entry reference: one complex per entry, written in place
        ref = np.zeros((4, 4), dtype=complex)
        for k, (re, im) in enumerate(pairs):
            ref[k // 4, k % 4] = complex(float(re), float(im))
        # the written layout (single spaces) and one with other whitespace
        for sep in (" ", " \t  "):
            text = "2 2\n" + "".join(
                sep.join(f"{re},{im}" for re, im in pairs[4 * r:4 * r + 4])
                + "\n" for r in range(4))
            M, dA, dB = parse_matrix_file(io.StringIO(text))
            assert (dA, dB) == (2, 2)
            assert M.dtype == ref.dtype and M.shape == ref.shape
            assert np.array_equal(M.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("row", ["1,2,3 4", "1, 2,3", "1,2 ,3",
                                     "1,2 3", "1,2 3,4 5,6", "1,2,3,4"])
    def test_rejects_bad_entries_in_a_row(self, row):
        # "1,2,3 4" has 2 commas and 2 entries, as a good row does, and
        # "1, 2,3" two entries and three numbers; all are bad rows
        with pytest.raises(ParseError, match="line 3"):
            parse_matrix_file(io.StringIO(f"1 2\n1,0 0,0\n{row}\n"))

    def test_any_whitespace_is_bit_exact(self):
        # seeded files as the benchmark writes them, each written again
        # with tabs, double spaces, trailing spaces and comment lines
        for j in range(20):
            rng = np.random.default_rng([3, j])
            if j % 2 == 0:
                matrix = states.random_separable(3, 3, 4, rng).matrix
            else:
                matrix = states.random_density(9, rng)
            buf = io.StringIO()
            write_matrix(buf, matrix, 3, 3)
            text = buf.getvalue()
            lines = text.splitlines()
            seps = ["\t", "  ", " \t "]
            other = "# rewritten\n" + "".join(
                "\t" * (k % 2) + seps[k % 3].join(line.split(" "))
                + " " * (k % 4) + "\n" + "# row\n" * (k % 3 == 0)
                for k, line in enumerate(lines))
            want, _, _ = parse_matrix_file(io.StringIO(text))
            got, dA, dB = parse_matrix_file(io.StringIO(other))
            assert (dA, dB) == (3, 3)
            assert np.array_equal(want, matrix)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("text,message", [
        ("bogus header\n",
         "line 1: expected header 'dA dB', got 'bogus header'"),
        ("1 2\n1,0 0,0\n0,0 bad\n",
         "line 3: bad entry 'bad' (expected 're,im')"),
        ("1 2\n1,0\n0,0 0,0\n", "line 2: expected 2 entries, got 1"),
        ("", "line 1: empty file"),
        ("1 2\n1,0 0,0\n1,2,3 4\n",
         "line 3: bad entry '1,2,3' (expected 're,im')"),
        ("1 2\n1,0 0,0\n1, 2,3\n",
         "line 3: bad entry '1,' (expected 're,im')"),
        ("1 2\n1,0 0,0\n1,2 ,3\n",
         "line 3: bad entry ',3' (expected 're,im')"),
        ("1 2\n1,0 0,0\n1,2 3\n",
         "line 3: bad entry '3' (expected 're,im')"),
        ("1 2\n1,0 0,0\n1,2 3,4 5,6\n", "line 3: expected 2 entries, got 3"),
        ("1 2\n1,0 0,0\n1,2,3,4\n", "line 3: expected 2 entries, got 1"),
        # the first token in file order that float() rejects
        ("1 2\n1,0 0,y\nx,0 0,0\n",
         "line 2: bad entry '0,y' (expected 're,im')"),
        ("1 2\n1,0\t0,z\n0,0 0,0\n",
         "line 2: bad entry '0,z' (expected 're,im')"),
        ("# c\n\n1 1\n 1,e \n", "line 4: bad entry '1,e' (expected 're,im')"),
        ("1 2\n1,0 0,0\n0,0 1,\n",
         "line 3: bad entry '1,' (expected 're,im')"),
        ("1 2\n1,0 0,0\n", "line 2: expected 2 matrix rows, got 1"),
    ])
    def test_parse_error_text(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_matrix_file(io.StringIO(text))
        assert str(err.value) == message
