from fractions import Fraction
import itertools
import math
import random
import time

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
from polylat import sums, zeta
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


@pytest.fixture
def kappa4_primal():
    # tau = i with doubled pairing (configs/kappa4.cfg): the zero section of
    # its primal frame is the dual lattice (Z/2)^2
    return SumLattice.from_abelian(PolarizedAbelianData.from_tau(0, 1, 2), "primal")


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


_SHEARS = {
    2: np.array([[1.0, 0.9], [0.0, 0.3]]),
    # the sheared rank-4 frame of test_enumerate_shell_complete_bruteforce
    4: np.array([[1.0, 0.9, 0.8, 0.7], [0.0, 1.0, -0.9, 0.8], [0.0, 0.0, 0.4, 0.9], [0.0, 0.0, 0.0, 0.5]]),
}


@pytest.mark.parametrize("rank, skewed", [(2, False), (4, False), (2, True), (4, True)])
def test_accelerated_certificate_is_honest(rank, skewed):
    # both pieces' closed-form tails must cover what a loose radius leaves out
    rng = random.Random(200 + rank)
    start = time.perf_counter()
    if skewed:
        frame = SumLattice.euclidean(rank, _SHEARS[rank].T @ _SHEARS[rank])
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
    if (rank, skewed) == (4, True):  # about 5 s on a 2.1 GHz Xeon vCPU
        assert time.perf_counter() - start < 30.0


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


@pytest.mark.parametrize(
    "which, u",
    [("kappa4_primal", (0.5, 0.0)), ("kappa4_primal", (Fraction(1, 2), Fraction(0)))]
    + [("tau_i_frame", (e, 0.0)) for e in (1e-5, 1e-7, 1e-9, 1e-11)],
)
def test_regimes_agree_on_and_near_zero_section(which, u, request):
    # on the zero section the dual piece trades its w = 0 term for its closed
    # form; just off it the dual point w = h keeps its term, however small |h|
    frame = request.getfixturevalue(which)
    P = VectorPolynomial.constant(1.0, 2)
    vd = kzeta_direct(frame, P, u, 3.0)
    va = kzeta_accelerated(frame, P, u, 3.0)
    assert abs(vd.scalar() - va.scalar()) <= vd.error_bound + va.error_bound, (vd.scalar(), va.scalar())


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


def test_smoothness_scan_guard(tau_i_frame, kappa4_primal):
    P = VectorPolynomial.constant(1.0, 2)
    with pytest.raises(GridTouchesZeroSection):
        smoothness_scan(tau_i_frame, P, 2.0, [(0.0, 0.0)], fd_step=0.01)
    with pytest.raises(GridTouchesZeroSection):
        smoothness_scan(kappa4_primal, P, 2.0, [(0.5, 0.5)], fd_step=0.01)


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


def test_torus_distance(tau_i_frame, kappa4_primal):
    assert torus_distance(tau_i_frame, [0.0, 0.0]) == 0.0
    assert abs(torus_distance(tau_i_frame, [0.5, 0.0]) - 0.5) < 1e-15
    assert abs(torus_distance(tau_i_frame, [0.9, 0.9]) - math.hypot(0.1, 0.1)) < 1e-15
    assert torus_distance(kappa4_primal, [0.5, 0.5]) == 0.0
    assert abs(torus_distance(kappa4_primal, [0.4, 0.1]) - math.hypot(0.1, 0.1)) < 1e-15


def test_auto_mode_picks_working_regime(z2):
    P = VectorPolynomial.constant(1.0, 2)
    fast = kzeta(z2, P, [0, 0], 2.0, mode="auto", tol=1e-10)
    assert fast.regime == "accelerated"  # direct certificate too slow here
    easy = kzeta(z2, P, [0, 0], 6.0, mode="auto", tol=1e-10)
    assert easy.regime == "direct"


def _batch_frame(which):
    tau_i = PolarizedAbelianData.from_tau(0, 1)
    skew = PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(1, 5))
    data = {"tau_i": tau_i, "skew": skew, "rank4": PolarizedAbelianData.product(tau_i, skew)}[which]
    return SumLattice.from_abelian(data, "dual")


@pytest.mark.parametrize(
    "which, chunk",
    [("tau_i", 1 << 16), ("tau_i", 7), ("skew", 1 << 16), ("skew", 7), ("rank4", 1 << 16), ("rank4", 600)],
)
def test_batch_matches_single_points(which, chunk, monkeypatch):
    # a batch shares everything but the characters, the dual points and the
    # zero term; a small chunk splits both enumerations and the blocks of u
    frame = _batch_frame(which)
    r = frame.rank
    quad = VectorPolynomial(r, {(2,) + (0,) * (r - 1): [1.0], (1, 1) + (0,) * (r - 2): [0.5j]})
    us = [
        [0.3, 0.1, 0.7, 0.45][:r],
        [Fraction(1, 3), Fraction(3, 4), Fraction(1, 6), Fraction(1, 2)][:r],
        [0] * r,  # on the lattice: the zero term
        [1.25, -0.6, 2.0, 0.05][:r],
    ]
    cases = [(s, A) for s in (1.3, 0.7 + 1.1j, -0.6) for A in (0.5, 2.0)]
    if which == "rank4":
        cases = cases[::3]
    singles = {}
    for P in (VectorPolynomial.constant(1.0, r), quad):
        for s, A in cases:
            for k, u in enumerate(us):
                singles[P.degree, s, A, k] = zeta._gamma_k(frame, P, [u], complex(s), A, 1e-11)[0][0]
    monkeypatch.setattr(sums, "_CHUNK", chunk)
    for P in (VectorPolynomial.constant(1.0, r), quad):
        for s, A in cases:
            batch, _tail = zeta._gamma_k(frame, P, us, complex(s), A, 1e-11)
            assert batch.shape == (len(us), P.target_dim)
            for k, row in enumerate(batch):
                one = singles[P.degree, s, A, k]
                assert np.max(np.abs(row - one)) <= 1e-13 * max(np.max(np.abs(one)), 1.0), (P.degree, s, A, k)


def test_scan_is_one_batch(tau_i_frame, monkeypatch):
    # the Gaussian transform and both radii are computed once per scan
    calls = []
    real_ft = zeta.gaussian_ft
    monkeypatch.setattr(zeta, "gaussian_ft", lambda *a, **k: calls.append(1) or real_ft(*a, **k))
    P = VectorPolynomial.constant(1.0, 2)
    rows = smoothness_scan(tau_i_frame, P, 2.0, [(0.31, 0.43), (0.5, 0.25)], fd_step=0.008, tol=1e-12)
    assert len(calls) == 1
    for row in rows:
        single = kzeta_accelerated(tau_i_frame, P, row["u"], 2.0, tol=1e-12).value
        assert np.max(np.abs(row["value"] - single)) <= 1e-13 * max(np.max(np.abs(single)), 1.0)


def test_paired_sum_odd_polynomial_off_lattice(tau_i_frame):
    """P(-y) = -P(y) for odd P: the paired half-lattice sum against a full-lattice brute force."""
    frame = tau_i_frame
    P = VectorPolynomial(
        2, {(3, 0): [1.0, 0.5j], (1, 2): [-0.7 + 0.2j, 2.0], (0, 3): [0.3, -1.1]}, target_dim=2
    )
    us = [(0.31, 0.47), (Fraction(1, 3), Fraction(1, 4))]
    R = 40.0

    def weight(q):
        return np.exp(-(2.5 + 0.5j) * np.log(q))

    got = sums._paired_sum(frame, P, us, R, weight)
    reach = math.ceil(math.sqrt(R / float(np.linalg.eigvalsh(frame.gram)[0])))
    box = np.array(list(itertools.product(range(-reach, reach + 1), repeat=2)))
    q = frame.q_values(box)
    ms = box[(q > 0) & (q <= R)]
    y, w = frame.points(ms), weight(frame.q_values(ms))
    for k, u in enumerate(us):
        chi = frame.char_values(ms, frame.reduce_point(u))
        ref = sum(c * wt * P.evaluate(pt) for c, wt, pt in zip(chi, w, y))
        assert np.max(np.abs(got[k] - ref)) <= 1e-12 * float(np.max(np.abs(ref)))
    # trivial characters: the +-l pairs cancel exactly
    assert not np.any(sums._paired_sum(frame, P, [(0.0, 0.0)], R, weight))
