"""Soundness at the edge of the separable set: no criterion may report a
separable state VIOLATED, at any tol the CLI accepts."""

import math

import numpy as np
import pytest

from sepcrit import maps, states
from sepcrit.criteria import TOL_FLOOR, Kind, RegionCriterion, Spectra
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


@pytest.mark.parametrize("tol", [TOL_FLOOR, 1e-9])
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
