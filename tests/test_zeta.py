import math
import random

import mpmath as mp
import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice
from polylat.errors import (
    GridTouchesZeroSection,
    NotAbsolutelyConvergent,
    PoleAtS,
    ZeroSectionSingularity,
)
from polylat.polygauss import VectorPolynomial
from polylat.verify import random_abelian_data
from polylat.zeta import (
    kzeta,
    kzeta_accelerated,
    kzeta_direct,
    kzeta_gamma_product,
    smoothness_scan,
    torus_distance,
)


def zeta_beta_oracle(s):
    """4 zeta(s) beta(s): the classical factorization of sum' 1/(m^2+n^2)^s."""
    mp.mp.dps = 25
    beta = mp.nsum(lambda k: (-1) ** k / (2 * k + 1) ** s, [0, mp.inf])
    return float(4 * mp.zeta(s) * beta)


@pytest.fixture
def z2():
    return SumLattice.euclidean(2)


@pytest.fixture
def tau_i_frame():
    return SumLattice.from_abelian(PolarizedAbelianData.from_tau(0, 1), "dual")


def test_direct_values_against_factorization(z2):
    P = VectorPolynomial.constant(1.0, 2)
    v3 = kzeta_direct(z2, P, [0, 0], 3.0, tol=4e-9)
    assert abs(v3.scalar().real - zeta_beta_oracle(3)) <= 1e-8
    # frozen from the oracle: 4 zeta(3) beta(3) = 4.65891361560384
    assert abs(v3.scalar().real - 4.65891362) <= 1e-8 + v3.error_bound


def test_accelerated_values_against_factorization(z2):
    P = VectorPolynomial.constant(1.0, 2)
    v2 = kzeta_accelerated(z2, P, [0, 0], 2.0, tol=1e-11)
    v3 = kzeta_accelerated(z2, P, [0, 0], 3.0, tol=1e-11)
    assert abs(v2.scalar().real - zeta_beta_oracle(2)) <= 1e-10
    assert abs(v2.scalar().real - 6.02681204) <= 1e-8
    assert abs(v3.scalar().real - zeta_beta_oracle(3)) <= 1e-10


def test_direct_precondition(z2):
    with pytest.raises(NotAbsolutelyConvergent):
        kzeta_direct(z2, VectorPolynomial.constant(1.0, 2), [0, 0], 1.0)
    with pytest.raises(NotAbsolutelyConvergent):
        kzeta_direct(z2, VectorPolynomial.monomial((2, 0), 2), [0, 0], 2.0)


def test_odd_polynomial_vanishes(z2):
    P = VectorPolynomial.monomial((1, 0), 2)
    v = kzeta_direct(z2, P, [0, 0], 3.0, tol=5e-7)
    assert abs(v.scalar()) < 1e-12  # exact pairwise cancellation


def test_split_point_independence(z2):
    P = VectorPolynomial.constant(1.0, 2)
    vals = [
        kzeta_accelerated(z2, P, [0.5, 0.5], 1.0, split_a=a, tol=1e-12).scalar()
        for a in (0.5, 2.0)
    ]
    assert abs(vals[0] - vals[1]) <= 1e-9 * max(abs(vals[0]), 1e-30)


def test_regime_agreement_randomized():
    rng = random.Random(77)
    for i in range(6):
        rank = 2 if i % 2 == 0 else 4
        data = random_abelian_data(rng, rank)
        frame = SumLattice.from_abelian(data, "dual")
        deg = rng.choice([0, 2])
        if deg == 0:
            P = VectorPolynomial.constant(1.0, rank)
        else:
            alpha = [0] * rank
            alpha[rng.randrange(rank)] = 2
            P = VectorPolynomial(rank, {tuple(alpha): [1.0]})
        # keep the direct-side power tail reachable (rank 4 boxes grow fast)
        s = (rank + deg) / 2.0 + (2.0 if rank == 2 else 3.5) + rng.random()
        u = [rng.randrange(0, 4) / 4 + 1 / 8 for _ in range(rank)]
        vd = kzeta_direct(frame, P, u, s, tol=1e-9)
        va = kzeta_accelerated(frame, P, u, s, tol=1e-11)
        scale = max(abs(vd.scalar()), 1e-12)
        assert abs(vd.scalar() - va.scalar()) / scale <= 1e-8, (rank, s, deg)


@pytest.mark.parametrize("rank, scaled, offset", [(2, False, 1.0), (4, False, 2.0), (2, True, 1.0)])
def test_direct_certificate_is_honest(rank, scaled, offset):
    # loose tolerances make the truncation error visible next to the bound;
    # the scaled frame has |y|^2 = 4 Q(y), which the polynomial bound must carry
    rng = random.Random(100 + rank)
    if scaled:
        frame = SumLattice.euclidean(rank, 0.25 * np.eye(rank))
    else:
        frame = SumLattice.from_abelian(random_abelian_data(rng, rank), "dual")
    quad = {(2,) + (0,) * (rank - 1): [1.0], (1, 1) + (0,) * (rank - 2): [0.5j]}
    for P in (VectorPolynomial.constant(1.0, rank), VectorPolynomial(rank, quad)):
        for u in ([0.0] * rank, [rng.randrange(8) / 8 + 1 / 16 for _ in range(rank)]):
            s = (rank + P.degree) / 2 + offset + rng.random()
            ref = kzeta_accelerated(frame, P, u, s, tol=1e-13).value
            for tol in (1e-3, 1e-6):
                vd = kzeta_direct(frame, P, u, s, tol=tol)
                assert vd.error_bound <= tol
                assert vd.error_bound >= np.max(np.abs(vd.value - ref)) - 1e-13, (P.degree, u, s, tol)


@pytest.mark.parametrize("rank, skewed", [(2, False), (4, False), (2, True)])
def test_accelerated_certificate_is_honest(rank, skewed):
    # both pieces' closed-form tails must cover what a loose radius leaves out
    rng = random.Random(200 + rank)
    if skewed:
        shear = np.array([[1.0, 0.9], [0.0, 0.3]])
        frame = SumLattice.euclidean(rank, shear.T @ shear)
    else:
        frame = SumLattice.from_abelian(random_abelian_data(rng, rank), "dual")
    quad = {(2,) + (0,) * (rank - 1): [1.0], (1, 1) + (0,) * (rank - 2): [0.5j]}
    for P in (VectorPolynomial.constant(1.0, rank), VectorPolynomial(rank, quad)):
        for u in ([0.0] * rank, [rng.randrange(8) / 8 + 1 / 16 for _ in range(rank)]):
            s = rank / 2 + 0.3 + rng.random()
            for A in (0.5, 2.0):
                ref = kzeta_accelerated(frame, P, u, s, split_a=A, tol=1e-13).value
                for tol in (1e-3, 1e-6):
                    va = kzeta_accelerated(frame, P, u, s, split_a=A, tol=tol)
                    gap = np.max(np.abs(va.value - ref))
                    assert va.error_bound >= gap - 1e-13, (P.degree, u, s, A, tol)


def test_character_shift_invariance(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    a = kzeta_accelerated(tau_i_frame, P, [0.25, 0.4], 1.5, tol=1e-12)
    b = kzeta_accelerated(tau_i_frame, P, [1.25, -0.6], 1.5, tol=1e-12)
    assert abs(a.scalar() - b.scalar()) <= 1e-12 * max(1.0, abs(a.scalar()))


def test_continuation_finite_at_s1(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    v = kzeta_accelerated(tau_i_frame, P, [0.5, 0.5], 1.0, tol=1e-11)
    assert np.isfinite(v.scalar().real)
    assert v.regime == "accelerated"


def test_zero_section_pole_detected(z2):
    P = VectorPolynomial.constant(1.0, 2)
    with pytest.raises(ZeroSectionSingularity):
        kzeta_accelerated(z2, P, [0, 0], 1.0, tol=1e-9)  # s = rank/2 pole


def test_zero_section_continuation_off_pole(z2):
    # u in the lattice but s away from the pole set: finite continuation
    P = VectorPolynomial.constant(1.0, 2)
    v = kzeta_accelerated(z2, P, [0, 0], 1.5, tol=1e-10)
    assert np.isfinite(v.scalar().real)


def test_boundary_pole_at_zero(z2):
    P = VectorPolynomial.constant(1.0, 2)
    with pytest.raises(PoleAtS):
        kzeta_accelerated(z2, P, [0.5, 0.5], 0.0, tol=1e-9)


def test_gamma_product_entire(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    center = complex(1.3, -0.2)
    n = 24
    vals = [
        kzeta_gamma_product(
            tau_i_frame, P, [0.25, 0.375], center + 0.4 * np.exp(2j * math.pi * k / n), tol=1e-12
        )[0]
        for k in range(n)
    ]
    mean = sum(vals) / n
    direct = kzeta_gamma_product(tau_i_frame, P, [0.25, 0.375], center, tol=1e-12)[0]
    assert abs(mean - direct) <= 1e-6 * max(abs(direct), 1e-30)


def test_complex_s_consistency(tau_i_frame):
    # direct and accelerated must agree at complex s in the convergent region
    P = VectorPolynomial.constant(1.0, 2)
    s = complex(3.0, 1.5)
    vd = kzeta_direct(tau_i_frame, P, [0.3, 0.1], s, tol=1e-10)
    va = kzeta_accelerated(tau_i_frame, P, [0.3, 0.1], s, tol=1e-11)
    assert abs(vd.scalar() - va.scalar()) <= 1e-8 * max(abs(vd.scalar()), 1e-12)


def test_smoothness_scan_guard(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    with pytest.raises(GridTouchesZeroSection):
        smoothness_scan(tau_i_frame, P, 2.0, [(0.0, 0.0)], fd_step=0.01)


def test_smoothness_scan_values(tau_i_frame):
    P = VectorPolynomial(2, {(2, 0): [1.0], (0, 2): [1.0]})
    grid = [(0.31, 0.43), (0.5, 0.25)]
    rows = smoothness_scan(tau_i_frame, P, 2.0, grid, fd_step=0.008, tol=1e-12)
    for row in rows:
        assert np.all(np.isfinite(np.abs(row["value"])))
        assert 0.9 <= row["stability_ratio"] <= 1.1
        assert 3.5 <= row["richardson_ratio"] <= 4.5


def test_scan_matches_direct_at_large_s(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    grid = [(0.31, 0.43)]
    rows = smoothness_scan(tau_i_frame, P, 6.0, grid, fd_step=0.008, tol=1e-12)
    vd = kzeta_direct(tau_i_frame, P, grid[0], 6.0, tol=1e-10)
    assert abs(rows[0]["value"][0] - vd.scalar()) <= 1e-8


def test_torus_distance(tau_i_frame):
    assert torus_distance(tau_i_frame, [0.0, 0.0]) == 0.0
    assert abs(torus_distance(tau_i_frame, [0.5, 0.0]) - 0.5) < 1e-15
    assert abs(torus_distance(tau_i_frame, [0.9, 0.9]) - math.hypot(0.1, 0.1)) < 1e-15


def test_auto_mode_picks_working_regime(z2):
    P = VectorPolynomial.constant(1.0, 2)
    fast = kzeta(z2, P, [0, 0], 2.0, mode="auto", tol=1e-10)
    assert fast.regime == "accelerated"  # direct certificate too slow here
    easy = kzeta(z2, P, [0, 0], 6.0, mode="auto", tol=1e-10)
    assert easy.regime == "direct"
