"""The two inclusions the paper's theory guarantees, as invariants.

- beta = 1: Tr rho^alpha [I (x) L](rho) < 0 forces a negative eigenvalue
  of [I (x) L](rho), since rho^alpha >= 0.  Quantitatively, with
  rho = U diag(lam) U^dag, the margin sum_i lam_i^alpha
  (U^dag [I (x) L](rho) U)_ii is at least lambda_min Tr rho^alpha, so a
  VIOLATED state has lambda_min <= margin / Tr rho^alpha, up to eigh's
  backward error n eps ||[I (x) L](rho)||_F.
- Entropic: the reduction criterion implies majorization (Hiroshima,
  PRL 91, 057902 (2003)), which implies every entropic inequality
  (Nielsen and Kempe, PRL 86, 5184 (2001)).  So an entropic VIOLATED
  state has a negative eigenvalue under the reduction map.

lambda_min is read from `Spectra(stack).map(dec.map).eig`.  A failing
inclusion is a soundness bug, not a tolerance to tune.
"""

import numpy as np
import pytest

from sepcrit import criteria, maps, scan, states

ALPHAS = (1, 3, 7, 20)
ENTROPIC_ALPHAS = (0.5, 2, 4, 10)
SO3_MAPS = ("reduction d=4", "breuer_hall d=4", "breuer_hall_tilde d=4",
            "tau_u d=4")
MAPS_3X3 = ("phi_dk d=3 k=1", "phi_dk d=3 k=2", "reduction d=3",
            "theta a=2 c=2,1,1")


def so3_fixture():
    """The res-60 SO(3) grid at p = 0.2, as one stack."""
    q, r = np.array([(q, r) for q, row in scan.so3_grid(0.2, 60)
                     for r, _ in row]).T
    return states.so3_stack(0.2, q, r), SO3_MAPS


def horodecki_fixture():
    """table1's 301-point gamma grid."""
    return states.horodecki_stack(np.linspace(2.0, 5.0, 301)), MAPS_3X3


def random_fixture(n=400, seed=31):
    """n seeded 3x3 states: half 0.7 |psi><psi| + 0.3 sigma for a random
    pure psi and a random full-rank sigma, half random full-rank."""
    rng = np.random.default_rng(seed)
    rhos = []
    for k in range(n):
        sigma = states.random_density(9, rng)
        if k % 2 == 0:
            psi = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            psi /= np.linalg.norm(psi)
            sigma = 0.7 * np.outer(psi, psi.conj()) + 0.3 * sigma
        rhos.append(sigma)
    return states.DensityMatrix(np.stack(rhos), 3, 3), MAPS_3X3


FIXTURES = {"so3": so3_fixture, "horodecki": horodecki_fixture,
            "random": random_fixture}


def structural(sp, dec):
    """lambda_min and ||X||_F of X = [I (x) L](rho) on every state."""
    entry = sp.map(dec.map)
    return entry.eig.eigenvalues[:, 0], np.linalg.norm(entry.X, axis=(-2, -1))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_beta_one_violation_fails_the_structural_test(name):
    stack, specs = FIXTURES[name]()
    sp = criteria.Spectra(stack)
    eps = np.finfo(float).eps
    n = stack.shape[-1]
    violations = 0
    for spec in specs:
        dec = maps.parse_map_spec(spec)
        lam_min, norm = structural(sp, dec)
        for alpha in ALPHAS:
            res = criteria.RegionCriterion("x", dec, alpha).verdicts(sp)
            hit = np.array(res.violated)
            bound = (np.array(res.margin) / sp.power(alpha).sum(-1)
                     + n * eps * norm)
            bad = np.flatnonzero(hit & (lam_min > bound))
            assert bad.size == 0, (spec, alpha, bad, lam_min[bad], bound[bad])
            violations += np.count_nonzero(hit)
    assert violations > 0  # not vacuous


# Horodecki's grid is left out: no entropic inequality detects a state
# of it, so the test would pass vacuously there
@pytest.mark.parametrize("name", ["random", "so3"])
def test_entropic_violation_fails_the_reduction_test(name):
    stack, _ = FIXTURES[name]()
    sp = criteria.Spectra(stack)
    lam_min, _ = structural(sp, maps.reduction_decomposition(stack.dB))
    violations = 0
    for alpha in ENTROPIC_ALPHAS:
        hit = np.array(criteria.RegionCriterion(
            "e", None, alpha).verdicts(sp).violated)
        bad = np.flatnonzero(hit & (lam_min >= 0))
        assert bad.size == 0, (alpha, bad, lam_min[bad])
        violations += np.count_nonzero(hit)
    assert violations > 0  # not vacuous
