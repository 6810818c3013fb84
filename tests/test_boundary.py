"""Soundness at the edge of the separable set: no criterion may report a
separable state VIOLATED, at any tol the CLI accepts."""

import math

import numpy as np
import pytest

from sepcrit import maps, states
from sepcrit.criteria import (
    PPT,
    TOL_CEILING,
    TOL_FLOOR,
    Kind,
    RegionCriterion,
    Spectra,
)
from sepcrit.errors import SingularOperand

# acceptance test 7's (alpha, beta, kind) triples, and the limit witness
TRIPLES = ([(a, b, Kind.I) for a in (1, 2, 5, 10) for b in (2, 3)] +
           [(a, b, Kind.II) for a in (1, 2, 5, 10) for b in (0.5, 1)] +
           [(a, b, Kind.IV) for a in (1, 2) for b in (1, 2)] +
           [(a, -0.5, Kind.III) for a in (1, 2)] +
           [(math.inf, 1.0, Kind.II)])

ENTROPIC_ALPHAS = (0, 0.5, 2, 3)


def decompositions_3x3():
    return [maps.reduction_decomposition(3),
            maps.phi_dk_decomposition(3, 1),
            maps.phi_dk_decomposition(3, 2),
            maps.theta_decomposition(2, [1, 1, 1]),
            maps.theta_decomposition(2, [2, 1, 1]),
            maps.transposition_decomposition(3)]


@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9, TOL_CEILING])
def test_horodecki_separable_range_is_never_violated(tol):
    # sigma_gamma is separable for gamma in [2, 3] (Horodecki, Horodecki
    # and Horodecki, PRL 82, 1056 (1999)); its rank-deficiency makes the
    # smallest margins sit at the edge of the verdict rule
    sp = Spectra(states.horodecki_stack(np.linspace(2.0, 3.0, 201)), tol)
    criteria = [RegionCriterion("entropic", None, a) for a in ENTROPIC_ALPHAS]
    for dec in decompositions_3x3():
        for alpha, beta, kind in TRIPLES:
            if kind is Kind.I and not dec.lambda2_is_identity:
                continue  # commutativity hypothesis not satisfied
            criteria.append(RegionCriterion(dec.name, dec, alpha, beta, kind))
    evaluated = violated = skipped = 0
    for crit in criteria:
        try:
            results = crit.verdicts(sp)
        except SingularOperand:
            # X2 = rho is singular, so kind III's rho^beta has no value
            assert crit.kind is Kind.III and crit.dec.lambda2_is_identity
            skipped += 1
            continue
        evaluated += len(results)
        violated += sum(res.violated for res in results)
    assert violated == 0
    assert evaluated == 201 * 124
    assert skipped == 5 * 2


def decompositions_4x4():
    return [maps.reduction_decomposition(4),
            maps.breuer_hall_decomposition(d=4),
            maps.breuer_hall_tilde_decomposition(d=4),
            maps.phi_dk_decomposition(4, 2),
            maps.tau_u_decomposition(maps.default_breuer_unitary(4))]


def separable_classes(d, rng, per_class=20):
    """name -> stack of separable states on C^d (x) C^d, per_class each
    (the maximally mixed state alone)."""
    n = d * d

    def unit():
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    def unitary():
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return np.linalg.qr(G)[0]

    def product():
        psi = np.kron(unit(), unit())
        return np.outer(psi, psi.conj())

    def mixture(rank):
        return sum(w * product() for w in rng.dirichlet(np.ones(rank)))

    def degenerate(m):
        # equal mixture of |kk>, k < m, under a random local unitary
        U = np.kron(unitary(), unitary())
        D = np.diag(np.isin(np.arange(n), np.arange(m) * (d + 1)) / m)
        return U @ D @ U.conj().T

    classes = {
        "pure product": [product() for _ in range(per_class)],
        "rank-2 mixture": [mixture(2) for _ in range(per_class)],
        "rank-3 mixture": [mixture(3) for _ in range(per_class)],
        # from well inside the separable set to within rounding of a
        # pure product
        "near pure": [(1 - eps) * product() + eps * np.eye(n) / n
                      for eps in np.geomspace(1e-1, 3e-12, per_class)],
        "degenerate": [degenerate(m) for m in np.resize((1, 2, 3, d),
                                                        per_class)],
        "maximally mixed": [np.eye(n) / n],
    }
    return {name: states.DensityMatrix(np.stack(ms), d, d)
            for name, ms in classes.items()}


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9, TOL_CEILING])
def test_separable_classes_are_never_violated(d, tol):
    decs = decompositions_3x3() if d == 3 else decompositions_4x4()
    # alpha close to 1 from below too: there the mass the clamp takes
    # decides the verdict
    criteria = [RegionCriterion("entropic", None, a)
                for a in ENTROPIC_ALPHAS + (0.9, 0.99)]
    for dec in decs:
        for alpha, beta, kind in TRIPLES:
            if kind is Kind.I and not dec.lambda2_is_identity:
                continue  # commutativity hypothesis not satisfied
            criteria.append(RegionCriterion(dec.name, dec, alpha, beta, kind))
    rng = np.random.default_rng(7)
    for name, stack in separable_classes(d, rng).items():
        sp = Spectra(stack, tol)
        count = len(stack.matrix)
        evaluated = violated = skipped = 0
        for crit in criteria:
            try:
                results = crit.verdicts(sp)
            except SingularOperand:
                # some state's operand is singular: evaluate one by one
                assert crit.kind is Kind.III, (name, crit.label)
                results = []
                for k in range(count):
                    one = Spectra(stack[k], tol)
                    try:
                        results += crit.verdicts(one)
                    except SingularOperand:
                        # rho^beta has no value on a rank-deficient state
                        assert one.lam.min() == 0, (name, k, crit.label)
                        skipped += 1
            evaluated += len(results)
            violated += sum(res.violated for res in results)
        assert violated == 0, name
        assert evaluated + skipped == count * len(criteria), name
        if name in ("pure product", "rank-2 mixture", "rank-3 mixture"):
            assert skipped  # kind III skips rank-deficient states
        if name == "maximally mixed" or (name == "near pure" and
                                         tol == TOL_FLOOR):
            assert skipped == 0, name


def twirled_products(rng, n_products=50, n_mixtures=12):
    """SO(3) states (`so3_stack`) that are separable: the U (x) U twirl
    over SU(2) is a mixture of local unitaries, and 3/2 (x) 3/2 is
    multiplicity-free, so it takes a product |a>|b> to `so3_state` with
    weights w_J = <ab|P_J|ab> (Breuer, PRA 71, 062330 (2005)).  Random
    products, mixtures of three of them and the 16 basis products."""
    P = states.so3_projectors()

    def unit():
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return v / np.linalg.norm(v)

    def weights(v):
        return [np.vdot(v, PJ @ v).real for PJ in P]

    products = [weights(np.kron(unit(), unit())) for _ in range(n_products)]
    mixtures = [rng.dirichlet(np.ones(3)) @ np.array(products[i:i + 3])
                for i in range(0, 3 * n_mixtures, 3)]
    basis = [weights(np.kron(a, b)) for a in np.eye(4) for b in np.eye(4)]
    w = np.array(products + mixtures + basis)
    return states.so3_stack(w[:, 0], w[:, 1], w[:, 2])


@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9, TOL_CEILING])
def test_so3_separable_states_are_never_violated(tol):
    # the family-table path of so3_region: map weights from
    # MatrixMap.cache, PPT from Family.pt_table
    stack = twirled_products(np.random.default_rng(7))
    count = len(stack.matrix)
    sp = Spectra(stack, tol)
    assert not any(res.violated for res in PPT().verdicts(sp))
    criteria = [RegionCriterion("entropic", None, a)
                for a in ENTROPIC_ALPHAS + (0.9, 0.99)]
    for dec in decompositions_4x4():
        for alpha, beta, kind in TRIPLES:
            if kind is Kind.I and not dec.lambda2_is_identity:
                continue  # commutativity hypothesis not satisfied
            criteria.append(RegionCriterion(dec.name, dec, alpha, beta, kind))
    evaluated = violated = skipped = 0
    for crit in criteria:
        try:
            results = crit.verdicts(sp)
        except SingularOperand:
            # some state's operand is singular: evaluate one by one
            assert crit.kind is Kind.III, crit.label
            results = []
            for k in range(count):
                try:
                    results += crit.verdicts(Spectra(stack[k], tol))
                except SingularOperand:
                    skipped += 1
        evaluated += len(results)
        violated += sum(res.violated for res in results)
    assert violated == 0
    assert evaluated + skipped == count * len(criteria)


def soundness_catalog():
    """d -> the soundness sweep's maps (acceptance test 7): four 3x3 and
    five 4x4."""
    return {3: [maps.reduction_decomposition(3),
                maps.phi_dk_decomposition(3, 1),
                maps.theta_decomposition(2, [1, 1, 1]),
                maps.transposition_decomposition(3)],
            4: decompositions_4x4()}


def product_mixtures(d, a, b, logits):
    """The stack of sum_k w_k |a_k b_k><a_k b_k|, one state per row of a,
    b (rows (k, d), normalized here) and logits (w = softmax(logits))."""
    a = a / np.linalg.norm(a, axis=-1, keepdims=True)
    b = b / np.linalg.norm(b, axis=-1, keepdims=True)
    psi = (a[..., :, None] * b[..., None, :]).reshape(a.shape[:-1] + (d * d,))
    w = np.exp(logits - logits.max(-1, keepdims=True))
    w /= w.sum(-1, keepdims=True)
    rho = np.einsum("ck,cki,ckj->cij", w, psi, psi.conj())
    return states.DensityMatrix(rho, d, d)


@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9, TOL_CEILING])
def test_hill_climb_finds_no_violation(tol):
    # a seeded random-step descent on each state's smallest relative
    # margin, margin / max(1, |lhs|, |rhs|), over rank-1 and rank-2
    # mixtures of product vectors: VIOLATED means it fell below -tol
    rng = np.random.default_rng(7)
    steps, per_rank = 30, 4
    n = 2 * per_rank

    def normal(shape, complex_=True):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if complex_ else z

    def smallest_margin(criteria, stack):
        sp = Spectra(stack, tol)
        low = np.full(n, np.inf)
        violated = 0
        for crit in criteria:
            try:
                results = crit.verdicts(sp)
            except SingularOperand:
                # X2 of a rank-deficient state is singular
                assert crit.kind is Kind.III, crit.label
                continue
            low = np.minimum(low, [r.margin / max(1.0, abs(r.lhs), abs(r.rhs))
                                   for r in results])
            violated += sum(r.violated for r in results)
        return low, violated

    violated, lows = 0, []
    for d, decs in soundness_catalog().items():
        for dec in decs:
            criteria = [RegionCriterion(dec.name, dec, alpha, beta, kind)
                        for alpha, beta, kind in TRIPLES
                        if kind is not Kind.I or dec.lambda2_is_identity]
            # the first per_rank states are rank 1: weight 0 on product 2
            params = [normal((n, 2, d)), normal((n, 2, d)),
                      normal((n, 2), False)]
            params[2][:per_rank, 1] = -np.inf
            low, bad = smallest_margin(criteria, product_mixtures(d, *params))
            violated += bad
            for sigma in np.geomspace(0.5, 1e-3, steps):
                trial = [p + sigma * normal(p.shape, np.iscomplexobj(p))
                         for p in params]
                trial[2][:per_rank, 1] = -np.inf
                got, bad = smallest_margin(criteria,
                                           product_mixtures(d, *trial))
                violated += bad
                better = got < low
                for p, t in zip(params, trial):
                    p[better] = t[better]
                low = np.where(better, got, low)
            lows.append(low.min())
    assert violated == 0
    # the descent reaches the edge of the verdict rule: the reduction and
    # Breuer-Hall margins vanish on product states
    assert min(lows) < 1e-13


# each (beta, kind) of TRIPLES, once
LIMIT_PAIRS = list(dict.fromkeys((beta, kind) for _, beta, kind in TRIPLES))


def separable_stacks():
    """The stacks of the tests above, each with its decompositions."""
    yield (states.horodecki_stack(np.linspace(2.0, 3.0, 201)),
           decompositions_3x3())
    for d, decs in ((3, decompositions_3x3()), (4, decompositions_4x4())):
        for stack in separable_classes(d, np.random.default_rng(7)).values():
            yield stack, decs
    yield twirled_products(np.random.default_rng(7)), decompositions_4x4()


@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9, TOL_CEILING])
def test_limit_is_never_violated_at_any_beta_and_kind(tol):
    # alpha = inf is the limit of each finite-alpha inequality divided by
    # lam_max ** alpha, which is >= 0 on a separable state: so is its limit
    evaluated = violated = skipped = total = 0
    for stack, decs in separable_stacks():
        sp, count = Spectra(stack, tol), len(stack.matrix)
        for dec in decs:
            for beta, kind in LIMIT_PAIRS:
                if kind is Kind.I and not dec.lambda2_is_identity:
                    continue  # commutativity hypothesis not satisfied
                crit = RegionCriterion(dec.name, dec, math.inf, beta, kind)
                total += count
                try:
                    results = crit.verdicts(sp)
                except SingularOperand:
                    # some state's operand is singular: evaluate one by one
                    assert kind is Kind.III, crit.label
                    results = []
                    for k in range(count):
                        try:
                            results += crit.verdicts(Spectra(stack[k], tol))
                        except SingularOperand:
                            skipped += 1
                evaluated += len(results)
                violated += sum(res.violated for res in results)
    assert violated == 0
    assert evaluated + skipped == total
    assert evaluated > 15000
