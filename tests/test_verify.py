import tracemalloc

import numpy as np

from polylat.bm import BLOCK_POINTS
from polylat.verify import _eisenstein_kronecker_sums, check_current_oracle

U = (0.3125, 0.1875)


def _terms_one_array(u, a, b, K):
    """Reference: every (a, b) term of the brute-force oracle as one array."""
    mm, nn = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
    mm = mm.ravel().astype(float)
    nn = nn.ravel().astype(float)
    keep = (mm != 0) | (nn != 0)
    mm, nn = mm[keep], nn[keep]
    chi = np.exp(2j * np.pi * (mm * (-u[1]) + nn * u[0]))
    c = mm + 1j * nn
    q = np.pi * (mm * mm + nn * nn)
    return chi * np.conj(c) ** (a - 1) * c ** (b - 1) * (-q / 2) / q ** (a + b)


def test_blocked_oracle_sums_match_one_array():
    K = 150
    rows = BLOCK_POINTS // (2 * K + 1)
    # several blocks of rows, the last one ragged
    assert 2 * K + 1 > 2 * rows and (2 * K + 1) % rows != 0
    pairs = [(a, n - a) for n in (4, 5, 6) for a in range(1, n)]
    sums = _eisenstein_kronecker_sums(U, pairs, K)
    for a, b in pairs:
        terms = _terms_one_array(U, a, b, K)
        assert abs(sums[a, b] - np.sum(terms)) <= 1e-15 * np.sum(np.abs(terms)), (a, b)


def test_current_oracle_memory_stays_bounded():
    # the one-array grid of 1201^2 points peaks at 122.5 MB here
    tracemalloc.start()
    try:
        record = check_current_oracle()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record["status"] == "pass"
    assert peak <= 16 * 2**20
