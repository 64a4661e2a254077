from fractions import Fraction
import gc
import itertools
import math
import time

import mpmath as mp
import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice, lattice
from polylat.errors import BudgetExceeded
from polylat.polygauss import VectorPolynomial
from polylat.theta import theta_direct, theta_eval, theta_transformed
from polylat.verify import random_abelian_data
from polylat.zeta import kzeta_accelerated


def jacobi_oracle():
    """Independent: direct mpmath summation, cross-checked against pi^{1/4}/Gamma(3/4)."""
    mp.mp.dps = 25
    series = mp.nsum(lambda n: mp.e ** (-mp.pi * n * n), [-mp.inf, mp.inf])
    closed = mp.pi ** mp.mpf(0.25) / mp.gamma(mp.mpf(3) / 4)
    assert abs(series - closed) < mp.mpf(10) ** -20
    return float(series)


@pytest.fixture
def rank1_frame():
    return SumLattice.euclidean(1, [[math.pi]])


@pytest.fixture
def tau_i_frame():
    return SumLattice.from_abelian(PolarizedAbelianData.from_tau(0, 1), "dual")


def test_jacobi_value(rank1_frame, tau_i_frame):
    res = theta_direct(rank1_frame, VectorPolynomial.constant(1.0, 1), [0.0], 1.0, tol=1e-12)
    assert abs(res.scalar().real - jacobi_oracle()) <= 1e-9
    assert abs(res.scalar().real - 1.0864348112) <= 1e-9
    assert res.tail_bound <= 1e-12
    res = theta_direct(tau_i_frame, VectorPolynomial.constant(1.0, 2), [0.0, 0.0], 1.0, tol=1e-12)
    assert abs(res.scalar().real - 1.180340599016096) < 1e-10  # sum e^{-pi|l|^2} on Z^2


def test_self_dual_fixed_point(rank1_frame):
    P = VectorPolynomial.constant(1.0, 1)
    a = theta_direct(rank1_frame, P, [0.0], 1.0, tol=1e-13)
    b = theta_transformed(rank1_frame, P, [0.0], 1.0, tol=1e-13)
    assert abs(a.scalar() - b.scalar()) <= 1e-12


def test_odd_polynomial_cancels(tau_i_frame):
    P = VectorPolynomial.monomial((1, 0), 2)
    res = theta_direct(tau_i_frame, P, [0.0, 0.0], 1.0, tol=1e-12)
    assert abs(res.scalar()) < 1e-14


def test_large_t_only_origin_survives(tau_i_frame):
    res = theta_direct(tau_i_frame, VectorPolynomial.constant(1.0, 2), [0, 0], 50.0, tol=1e-30)
    assert abs(res.scalar() - 1.0) <= math.exp(-40)


def test_transformation_law_rank2_specialization(tau_i_frame):
    # the transformation law specializes to Theta(t) = t^{-1} Theta(1/t)
    # for Q = pi |x|^2 on Z^2
    P = VectorPolynomial.constant(1.0, 2)
    for t in (0.3, 0.7, 2.5):
        a = theta_direct(tau_i_frame, P, [0, 0], t, tol=1e-13)
        c = theta_direct(tau_i_frame, P, [0, 0], 1 / t, tol=1e-13)
        assert abs(t * a.scalar() - c.scalar()) <= 1e-10 * abs(c.scalar())


def test_direct_vs_transformed_same_value(tau_i_frame):
    # tau = 1/2 + i/20 squared: at t = 1 the sup-norm box that holds its
    # ellipsoid has about 1.5M points, the ellipsoid itself 625, so only
    # an ellipsoid sum meets the wall cap
    curve = PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(1, 20))
    skewed = SumLattice.from_abelian(PolarizedAbelianData.product(curve, curve), "dual")
    for frame, u, ts, tol in (
        (tau_i_frame, [0, 0], (1.0,), 1e-12),
        (skewed, [0.3, 0.1, 0.7, 0.45], (0.5, 1.0), 1e-13),
    ):
        P = VectorPolynomial.constant(1.0, frame.rank)
        start = time.perf_counter()
        for t in ts:
            a = theta_direct(frame, P, u, t, tol=tol)
            b = theta_transformed(frame, P, u, t, tol=tol)
            assert abs(a.scalar() - b.scalar()) <= 1e-10 * abs(a.scalar()), (frame.rank, t)
        assert time.perf_counter() - start < 2.0, frame.rank


def test_transformation_law_randomized():
    import random

    rng = random.Random(123)
    for i in range(8):
        rank = 2 if i % 2 == 0 else 4
        data = random_abelian_data(rng, rank)
        frame = SumLattice.from_abelian(data, "dual")
        t = 0.2 + 4.8 * rng.random()
        u = [rng.random() for _ in range(rank)]
        P = VectorPolynomial.constant(1.0, rank)
        a = theta_direct(frame, P, u, t, tol=1e-13)
        b = theta_transformed(frame, P, u, t, tol=1e-13)
        denom = max(abs(a.scalar()), 1e-30)
        assert abs(a.scalar() - b.scalar()) / denom <= 1e-10


def test_small_t_blowup_rate(tau_i_frame):
    P = VectorPolynomial.constant(1.0, 2)
    vals = []
    for t in (0.1, 0.05, 0.02):
        res = theta_eval(tau_i_frame, P, [0, 0], t, tol=1e-12, mode="auto")
        assert res.mode == "transformed"
        vals.append(t ** tau_i_frame.data.d * abs(res.scalar()))
    assert max(vals) < 2.0  # t^d Theta(t) stays bounded as t -> 0


def test_conjugation_symmetry(tau_i_frame):
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.25]})
    u = [0.3, 0.45]
    a = theta_direct(tau_i_frame, P, u, 0.9, tol=1e-13)
    b = theta_direct(tau_i_frame, P, [-x for x in u], 0.9, tol=1e-13)
    assert abs(a.scalar() - np.conj(b.scalar())) < 1e-13


def test_budget_exceeded(tau_i_frame):
    # the direct ellipsoid grows as 1/t and the dual one as t: both exceed the point budget
    P = VectorPolynomial.constant(1.0, 2)
    with pytest.raises(BudgetExceeded, match="within 1e\\+07 points$"):
        theta_direct(tau_i_frame, P, [0, 0], 1e-7, tol=1e-14)
    with pytest.raises(BudgetExceeded, match="within 1e\\+07 points$"):
        theta_transformed(tau_i_frame, P, [0, 0], 1e6, tol=1e-14)


def _poisson_residual(data, P, h):
    """|direct - transformed| of the theta sum at t = 1 on the dual frame, each side certified to 1e-12."""
    frame = SumLattice.from_abelian(data, "dual")
    a = theta_direct(frame, P, h, 1.0, tol=1e-12)
    b = theta_transformed(frame, P, h, 1.0, tol=1e-12)
    return float(np.max(np.abs(a.value - b.value)))


def test_poisson_residuals():
    data = PolarizedAbelianData.from_tau(0, 1)
    P0 = VectorPolynomial.constant(1.0, 2)
    assert _poisson_residual(data, P0, [0, 0]) <= 1e-10
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5]})
    assert _poisson_residual(data, P, [1 / 3, 0]) <= 1e-10
    zero = VectorPolynomial(2, {}, homogeneous=True)
    assert _poisson_residual(data, zero, [0, 0]) == 0.0
    # skewed frames of index 4 and a rank-4 product
    for factors in (
        [(Fraction(-1, 2), Fraction(3, 2), 2)],
        [(Fraction(1, 2), Fraction(7, 4), 2)],
        [(0, 1, 1), (Fraction(1, 2), Fraction(3, 2), 1)],
    ):
        data = PolarizedAbelianData.product(*(PolarizedAbelianData.from_tau(*f) for f in factors))
        r = data.rank
        h = [1 / 3] + [0] * (r - 1)
        for P in (VectorPolynomial.constant(1.0, r), VectorPolynomial(r, {(2,) + (0,) * (r - 1): [1.0]})):
            assert _poisson_residual(data, P, h) <= 1e-10


def test_poisson_near_zero_section():
    # h = (1e-7, 0) is off the zero section: the dual point w = h keeps its term
    data = PolarizedAbelianData.from_tau(0, 1)
    assert _poisson_residual(data, VectorPolynomial.constant(1.0, 2), [1e-7, 0]) <= 1e-10


def _theta_reference(frame, P, u, t):
    """The theta sum at 30 digits, by brute force over every m with t Q(m) <= 110.

    l = V m, Q(l) = l^T M l and the phase l^T B u are taken in mpmath from
    the frame's defining matrices; the points left out sum below 1e-40.
    """
    with mp.workdps(30):
        R = 110 / t
        reach = [math.ceil(math.sqrt(R * g)) for g in np.diag(np.linalg.inv(frame.gram))]
        basis, q_mat = mp.matrix(frame.basis.tolist()), mp.matrix(frame.q_mat.tolist())
        pu = mp.matrix((frame.pairing @ np.asarray(u, dtype=float)).tolist())
        total = mp.mpc(0)
        for m in itertools.product(*(range(-k, k + 1) for k in reach)):
            lam = basis * mp.matrix(m)
            q = (lam.T * q_mat * lam)[0]
            if q > R:
                continue
            poly = sum(
                complex(vec[0]) * mp.fprod(lam[j] ** a for j, a in enumerate(alpha)) for alpha, vec in P.coeffs.items()
            )
            total += mp.expjpi(2 * (lam.T * pu)[0]) * mp.exp(-t * q) * poly
        return complex(total)


# tau = i with index 4, so that its two sides differ, and a skewed frame
@pytest.mark.parametrize("tau", [(0, 1, 2), (Fraction(1, 2), Fraction(1, 5), 1)])
@pytest.mark.parametrize("side", ["dual", "primal"])
def test_theta_certificate_is_honest(tau, side):
    # loose tolerances leave a truncation error that the tail bound must cover
    frame = SumLattice.from_abelian(PolarizedAbelianData.from_tau(*tau), side)
    u = [0.3, 0.45]
    for P in (VectorPolynomial.constant(1.0, 2), VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5]})):
        for t in (0.3, 0.7, 1.5, 4.0):
            ref = _theta_reference(frame, P, u, t)
            for engine in (theta_direct, theta_transformed):
                for tol in (1e-2, 1e-4, 1e-7):
                    res = engine(frame, P, u, t, tol=tol)
                    assert res.tail_bound <= tol
                    assert res.tail_bound >= abs(res.scalar() - ref) - 1e-13, (engine.__name__, P.degree, t, tol)


def test_transform_law_primal_side_kappa4():
    # primal-side sum whose Poisson dual is the finer kappa = 4 lattice:
    # exercises the tail bound with basis smin < 1 on the enumerated side
    data = PolarizedAbelianData(1, [[0, -1], [1, 0]], [[0, -2], [2, 0]])
    frame = SumLattice.from_abelian(data, "primal")
    P = VectorPolynomial.constant(1.0, 2)
    for t, u in ((0.4, [0.2, 0.6]), (1.6, [0.0, 0.0])):
        a = theta_direct(frame, P, u, t, tol=1e-13)
        b = theta_transformed(frame, P, u, t, tol=1e-13)
        assert abs(a.scalar() - b.scalar()) <= 1e-10 * max(abs(a.scalar()), 1e-30)


def test_transform_built_once_per_polynomial_and_frame(monkeypatch):
    calls = []
    real_ft = lattice.gaussian_ft  # the name SumLattice.transform calls
    monkeypatch.setattr(lattice, "gaussian_ft", lambda *a, **k: calls.append(1) or real_ft(*a, **k))
    data = PolarizedAbelianData.from_tau(Fraction(1, 4), Fraction(5, 4))
    frame = SumLattice.from_abelian(data, "dual")
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5j]})
    cases = [((0.3, 0.1), 0.7), ((Fraction(1, 2), Fraction(1, 4)), 1.3), ((0.3, 0.1), 0.7)]
    thetas = [theta_transformed(frame, P, u, t, tol=1e-12) for u, t in cases]
    assert len(calls) == 1
    zetas = [kzeta_accelerated(frame, P, (0.3, 0.1), 2.5, split_a=A) for A in (0.5, 1.0, 2.0)]
    assert len(calls) == 1
    Q = VectorPolynomial.constant(1.0, 2)
    for _ in range(2):
        theta_transformed(frame, Q, (0.3, 0.1), 0.7, tol=1e-12)
    assert len(calls) == 2
    # a fresh frame builds its own transform and gives the same values bit for bit
    fresh = SumLattice.from_abelian(data, "dual")
    for (u, t), res in zip(cases, thetas):
        again = theta_transformed(fresh, P, u, t, tol=1e-12)
        assert np.array_equal(again.value, res.value) and again.tail_bound == res.tail_bound
    for A, res in zip((0.5, 1.0, 2.0), zetas):
        again = kzeta_accelerated(fresh, P, (0.3, 0.1), 2.5, split_a=A)
        assert np.array_equal(again.value, res.value) and again.error_bound == res.error_bound
    assert len(calls) == 3
    assert len(frame._transforms) == 2
    del P, Q
    gc.collect()
    assert len(frame._transforms) == 0 and len(fresh._transforms) == 0
