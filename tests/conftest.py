import numpy as np
import pytest

from sepcrit import states
from sepcrit.formats import format_float

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# How far alpha = inf of a decomposition (the limit of lambda1's pairing
# vector minus lambda2's) may read from `limit_witness` of its map (the
# weights of lambda1 - lambda2), relative to max(1, |witness|): the two
# sum the same group, and differ only by X1 - X2's rounding.  The suite's
# families and the table1 grid read at most 7.2e-16.
LIMIT_DRIFT = 1e-14


def bell_state(d=2):
    """|psi+><psi+| on C^d (x) C^d."""
    psi = np.zeros(d * d, dtype=complex)
    psi[:: d + 1] = 1 / np.sqrt(d)
    return np.outer(psi, psi.conj())


def random_hermitian(d, rng):
    H = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (H + H.conj().T) / 2


def random_psd(d, rng):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return G @ G.conj().T


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def pure_products(n, seed, d=3):
    """n seeded random pure product states |psi_A psi_B><psi_A psi_B| on
    C^d (x) C^d, as matrices."""
    rng = np.random.default_rng(seed)

    def unit():
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return v / np.linalg.norm(v)

    out = []
    for _ in range(n):
        psi = np.kron(unit(), unit())
        out.append(np.outer(psi, psi.conj()))
    return out


def nearly_hermitian_state(rng):
    """A random separable 3x3 state plus an anti-Hermitian part, as a
    matrix: it validates, but is Hermitian only to about 1e-10."""
    rho = states.random_separable(3, 3, 4, rng).matrix
    rho = (rho + rho.conj().T) / 2
    E = np.zeros((9, 9), complex)
    E[[0, 1, 2], [3, 4, 5]] = 1j
    E -= E.conj().T
    return rho + 0.9e-10 * np.linalg.norm(rho) / np.linalg.norm(E) * E


def reference_csv_row(q, r, s, checked):
    """A region CSV line from one state's `check_state` results (PPT
    first), formatted cell by cell."""
    (_, ppt), *results = checked
    cells = [format_float(x, 9) for x in (q, r, s)]
    cells.append(str(int(not ppt.violated)))
    for _, res in results:
        cells += [str(int(res.violated)), format_float(res.margin, 9)]
    return ",".join(cells)
