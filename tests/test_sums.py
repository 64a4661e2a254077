import re
import time

import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice
from polylat.errors import BudgetExceeded
from polylat.polygauss import VectorPolynomial
from polylat.sums import certified_sum
from polylat.theta import theta_direct, theta_transformed
from polylat.zeta import kzeta_accelerated, kzeta_direct


def test_certified_sum_geometric_series():
    # sum_k 2^-k with the exact remainder 2^-k beyond shell k
    def partial(k):
        return np.array([0.5**k])

    def tail(k):
        return 0.5**k

    value, bound, shells = certified_sum(partial, tail, 1e-3, 1, what="toy", shell_cap=50)
    assert (bound, shells) == (0.5**10, 11)
    assert abs(value[0] - (2.0 - 0.5**10)) < 1e-15
    # the tail is not consulted before k_cert; start skips leading shells
    value, bound, shells = certified_sum(
        partial, tail, 1e-3, 1, what="toy", shell_cap=50, start=1, k_cert=20
    )
    assert (bound, shells) == (0.5**20, 21)
    assert abs(value[0] - (1.0 - 0.5**20)) < 1e-15
    # batches of two shells may sum one shell more, in the same order
    value2, _bound, shells2 = certified_sum(partial, tail, 1e-3, 1, what="toy", shell_cap=50, threads=2)
    assert shells2 == 12
    assert abs(value2[0] - (2.0 - 0.5**11)) < 1e-15


def _tau_i():
    return SumLattice.from_abelian(PolarizedAbelianData.from_tau(0, 1), "dual")


_P = VectorPolynomial.constant(1.0, 2)
_U = [0.3, 0.1]


@pytest.mark.parametrize(
    "what, call",
    [
        ("direct theta", lambda f: theta_direct(f, _P, _U, 1e-4, shell_cap=3)),
        ("transformed theta", lambda f: theta_transformed(f, _P, _U, 100.0, shell_cap=3)),
        ("direct zeta", lambda f: kzeta_direct(f, _P, _U, 3.0, shell_cap=3)),
        # a small split point leaves the direct piece slow, a large one the dual piece
        ("accelerated zeta (direct piece)", lambda f: kzeta_accelerated(f, _P, _U, 3.0, split_a=0.01, shell_cap=3)),
        ("accelerated zeta (dual piece)", lambda f: kzeta_accelerated(f, _P, _U, 3.0, split_a=50.0, shell_cap=3)),
    ],
)
def test_budget_exceeded_every_engine(what, call):
    with pytest.raises(BudgetExceeded, match="^" + re.escape(what) + ": no certified tail <= .* within 3 shells$"):
        call(_tau_i())


def test_direct_zeta_fails_fast_off_lattice():
    # the rank-4 power tail at s = 2.6 needs ~1e9 shells; the loop would
    # allocate shells of ~6e7 points long before its cap stopped it
    frame = SumLattice.euclidean(4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        kzeta_direct(frame, VectorPolynomial.constant(1.0, 4), [0.1, 0.2, 0.3, 0.4], 2.6)
    assert time.perf_counter() - start < 1.0
