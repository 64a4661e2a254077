from fractions import Fraction
import math
import re
import time

import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice
from polylat.errors import BudgetExceeded
from polylat.incgamma import upper_gamma
from polylat.lattice import cell_radius, ellipsoid_chunks, ellipsoid_radius
from polylat.polygauss import VectorPolynomial, gaussian_ft
from polylat.sums import power_tail
from polylat.theta import theta_direct, theta_transformed
from polylat import sums, zeta
from polylat.zeta import kzeta_accelerated, kzeta_direct


def _tau_i():
    return SumLattice.from_abelian(PolarizedAbelianData.from_tau(0, 1), "dual")


_P = VectorPolynomial.constant(1.0, 2)
_U = [0.3, 0.1]


def _no_enumeration(*args, **kwargs):
    raise AssertionError("enumerated before the budget check")


@pytest.mark.parametrize(
    "what, call",
    [
        # t -> 0 widens the direct ellipsoid and t -> inf the dual one
        ("direct theta", lambda f: theta_direct(f, _P, _U, 1e-7)),
        ("transformed theta", lambda f: theta_transformed(f, _P, _U, 1e6)),
        # a tiny split point leaves the direct piece slow, a huge one the dual piece:
        # either needs an ellipsoid beyond the point budget, found before enumerating
        ("accelerated zeta (direct piece)", lambda f: kzeta_accelerated(f, _P, _U, 3.0, split_a=1e-9)),
        ("accelerated zeta (dual piece)", lambda f: kzeta_accelerated(f, _P, _U, 3.0, split_a=1e9)),
    ],
)
def test_budget_exceeded_every_engine(what, call, monkeypatch):
    monkeypatch.setattr(sums, "ellipsoid_chunks", _no_enumeration)
    with pytest.raises(BudgetExceeded, match="^" + re.escape(f"{what}: no certified tail <= ") + ".* within 1e\\+07 points$"):
        call(_tau_i())


def test_direct_piece_budget_before_gaussian_transform(monkeypatch):
    # the direct radius needs only P: a tiny split point fails before the
    # Gaussian transform, which costs most for high-degree P, is built
    def no_transform(*args, **kwargs):
        raise AssertionError("transformed before the direct budget check")

    monkeypatch.setattr(zeta, "gaussian_ft", no_transform)
    with pytest.raises(BudgetExceeded, match="^" + re.escape("accelerated zeta (direct piece): ")):
        kzeta_accelerated(_tau_i(), _P, _U, 3.0, split_a=1e-9)


def test_direct_zeta_fails_fast_off_lattice(monkeypatch):
    # the rank-4 tail at s = 2.6 needs an ellipsoid of ~1e38 points; the
    # budget is checked from the closed-form tail before anything is enumerated
    monkeypatch.setattr(sums, "ellipsoid_chunks", _no_enumeration)
    frame = SumLattice.euclidean(4)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        kzeta_direct(frame, VectorPolynomial.constant(1.0, 4), [0.1, 0.2, 0.3, 0.4], 2.6)
    assert time.perf_counter() - start < 1.0


def test_dual_candidates_fail_fast(monkeypatch):
    # with the dual radius at the edge of the budget, the candidates about
    # the origin that cover a shifted center need more points: found
    # before anything is enumerated
    monkeypatch.setattr(sums, "ellipsoid_chunks", _no_enumeration)
    monkeypatch.setattr(zeta, "solve_radius", lambda tail, tol, gram, points, what: ellipsoid_radius(gram, points))
    with pytest.raises(BudgetExceeded, match=re.escape("accelerated zeta (dual piece): candidates within ")):
        kzeta_accelerated(_tau_i(), _P, _U, 3.0)


def test_chunk_bounds_coordinates_plus_table(monkeypatch):
    # per chunk, the integer coordinates (rank entries a point) plus the
    # monomial table (one entry per point and monomial) hold at most _CHUNK
    # entries: len(P.matrix) monomials on the paired side, the most of any
    # power t^-m on the dual side
    asked, real = [], sums.ellipsoid_chunks  # (half, coords, chunk) of each request

    def chunks(gram, R, **kwargs):
        asked.append((kwargs.get("half", False), kwargs.get("coords", True), kwargs["chunk"]))
        return real(gram, R, **kwargs)

    monkeypatch.setattr(sums, "ellipsoid_chunks", chunks)
    frame = SumLattice.from_abelian(
        PolarizedAbelianData.product(*(PolarizedAbelianData.from_tau(*tau) for tau in _TAIL_FRAMES)), "dual"
    )
    u = [0.3, 0.1, 0.7, 0.45]
    quartic = VectorPolynomial(
        4, {(4, 0, 0, 0): [1.0], (2, 2, 0, 0): [0.5], (1, 1, 1, 1): [0.25j], (0, 1, 0, 3): [2.0], (0, 0, 0, 4): [1.0]}
    )
    gf = gaussian_ft(quartic, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    widths = {True: len(quartic.matrix), False: max(len(part.matrix) for part in gf.by_tpower.values())}
    assert widths[False] > widths[True] >= 5
    theta_direct(frame, quartic, u, 1.0, tol=1e-10)
    theta_transformed(frame, quartic, u, 1.0, tol=1e-10)
    kzeta_accelerated(frame, quartic, u, 3.0, tol=1e-8)
    assert sorted({half for half, _coords, _chunk in asked}) == [False, True]  # both sides were summed
    for half, coords, chunk in asked:
        assert coords and chunk * (widths[half] + 4) <= sums._CHUNK, (half, chunk)
    # the coordinate-free constant sum at u = 0 needs neither: it keeps _CHUNK rows
    asked.clear()
    theta_direct(frame, VectorPolynomial.constant(1.0, 4), [0, 0, 0, 0], 1.0)
    assert asked == [(True, False, sums._CHUNK)]


_TAIL_FRAMES = [(0, 1), (Fraction(1, 2), Fraction(1, 5))]  # tau = i and tau = 1/2 + i/5


def _radii(gram, big, q):
    # from just above 4 D^2, where the integral comparison starts to apply,
    # and just below the first values of Q beyond it, where the remainder
    # is largest against the bound
    D = cell_radius(gram)
    steps = [(2 * D + step) ** 2 for step in (0.01, 0.1, 0.3, 0.6, 1.0, 1.5, 2.5, 4.0)]
    shells = np.unique(q[q > 4 * D * D])[:8] * (1 - 1e-9)
    return [R for R in sorted(steps + list(shells)) if R < big / 4]


@pytest.mark.parametrize("tau", _TAIL_FRAMES)
@pytest.mark.parametrize(
    "s_re, amps, decay, center",
    [
        (2.5, [1.0], 0.0, None),
        (2.0, [0.0, 0.0, 1.0], 0.0, None),
        (0.0, [1.0], 1.0, None),
        (1.0, [1.0, 0.0, 0.5], 0.3, None),
        (1.0, [1.0], 1.0, (0.3, -0.2)),
        (0.5, [0.0, 1.0], 0.3, (0.5, 0.5)),
    ],
)
def test_power_tail_covers_exact_remainder(tau, s_re, amps, decay, center):
    # the sum beyond R over the points enumerated to a much larger radius
    # is a lower bound of the true remainder, so power_tail must cover it
    gram = SumLattice.from_abelian(PolarizedAbelianData.from_tau(*tau), "dual").gram
    big = 400.0 if decay == 0 else 200.0 / decay
    q = np.concatenate([qc for _ms, qc in ellipsoid_chunks(gram, big, center=center)])
    q = q[q > 1e-12]
    f = sum(amp * q ** (k / 2 - s_re) for k, amp in enumerate(amps)) * np.exp(-decay * q)
    sqrt_det = math.sqrt(np.linalg.det(gram))
    for R in _radii(gram, big, q):
        bound = power_tail(R, rank=2, sqrt_det=sqrt_det, cell_radius=cell_radius(gram), s_re=s_re, amps=amps, decay=decay)
        assert f[q > R].sum() <= bound, (R, f[q > R].sum(), bound)


@pytest.mark.parametrize("tau", _TAIL_FRAMES)
@pytest.mark.parametrize("s, A", [(2.0, 1.0), (1.5 + 0.5j, 0.5), (-0.5, 2.0)])
@pytest.mark.parametrize("u", [(0.0, 0.0), (0.3, 0.1)])
def test_gamma_dual_tail_covers_exact_remainder(tau, s, A, u):
    # |Gamma(rho, pi^2 Qd / A)| (pi^2 Qd)^-Re(rho) |w^alpha| |vec| summed
    # over the dual points beyond Qd = R, as far as a much larger radius
    frame = SumLattice.from_abelian(PolarizedAbelianData.from_tau(*tau), "dual")
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5j]})
    gf = gaussian_ft(P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    rhos = {m: 1.0 + m - s for m in gf.by_tpower}
    V = frame.dual_basis
    gram = V.T @ gf.dual_form @ V
    tail = zeta._gamma_dual_tail(frame, gf, rhos, A)
    h = frame.reduce_point(u)
    big = 60.0 * A
    chunks = list(ellipsoid_chunks(gram, big, center=-np.linalg.solve(V, h)))
    ms, q = np.vstack([c[0] for c in chunks]), np.concatenate([c[1] for c in chunks])
    ms, q = ms[q > 1e-12], q[q > 1e-12]
    ws = ms @ V.T + h
    f = np.zeros(len(q))
    for m, part in gf.by_tpower.items():
        rho = rhos[m]
        g = np.abs(upper_gamma(rho, math.pi**2 * q / A)) * (math.pi**2 * q) ** -rho.real
        for alpha, vec in part.coeffs.items():
            f += g * np.abs(np.prod(ws ** np.array(alpha), axis=1)) * np.max(np.abs(vec))
    checked = 0
    for R in _radii(gram, big, q):
        bound = tail(R)
        if math.isfinite(bound):
            checked += 1
            assert f[q > R].sum() <= bound, (R, f[q > R].sum(), bound)
    assert checked >= 3
