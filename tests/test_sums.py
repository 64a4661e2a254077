from fractions import Fraction
import math
import re
import time

import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice
from polylat.errors import BudgetExceeded
from polylat.incgamma import upper_gamma, upper_gamma_bound
from polylat.lattice import Geometry, ellipsoid_chunks, ellipsoid_radius
from polylat.polygauss import VectorPolynomial, gaussian_ft
from polylat.sums import _tail, power_tail, solve_radius
from polylat.theta import theta_direct, theta_transformed
from polylat import lattice, sums, theta, zeta
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

    monkeypatch.setattr(lattice, "gaussian_ft", no_transform)  # the name SumLattice.transform calls
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
    # the mean of two far-apart centers, which must cover both ellipsoids,
    # need more points: found before anything is enumerated
    monkeypatch.setattr(sums, "ellipsoid_chunks", _no_enumeration)
    monkeypatch.setattr(zeta, "solve_radius", lambda tail, tol, geom, points, what: ellipsoid_radius(geom, points))
    with pytest.raises(BudgetExceeded, match=re.escape("accelerated zeta (dual piece): candidates within ")):
        zeta._accelerated(_tau_i(), _P, [[0.0, 0.0], [0.5, 0.5]], 3.0, 1.0, 1e-10)


def test_single_point_enumerates_its_own_ellipsoid(monkeypatch):
    # a batch of one is enumerated about its center, reduced mod Z^r, within R itself
    asked, real = [], sums.ellipsoid_chunks

    def chunks(geom, R, **kwargs):
        asked.append((geom, R, kwargs.get("center")))
        return real(geom, R, **kwargs)

    monkeypatch.setattr(sums, "ellipsoid_chunks", chunks)
    frame = _tau_i()
    gf = gaussian_ft(_P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    sums._dual_sum(frame, gf, [_U], 20.0, lambda m, qd: np.exp(-qd), lambda m: 1.0, budget=1e7, what="test")
    (geom, R, center), = asked
    assert geom is frame.dual_geometry and R == 20.0
    c = frame.dual_centers([_U])[0]
    assert np.array_equal(center, c - np.round(c))
    assert np.all(np.abs(center) <= 0.5)


def test_frame_factors_computed_once(monkeypatch):
    # once a frame exists, theta on both sides and accelerated zeta read the
    # Gram factors from frame.geometry and frame.dual_geometry: no
    # cell_radius call, and no Cholesky factor, determinant or eigenvalues
    # of the Gram matrix of either side
    frame = SumLattice.from_abelian(PolarizedAbelianData.from_tau(*_TAIL_FRAMES[1]), "dual")
    V = frame.dual_basis
    grams = [frame.gram, V.T @ frame.dual_form @ V]
    grams += [g[::-1, ::-1] for g in grams]
    assert not any(np.allclose(g, frame.q_mat) for g in grams)  # the transform factors q_mat itself
    calls = []

    def counted(name, fn):
        def call(a, *args, **kwargs):
            if any(np.shape(a) == g.shape and np.allclose(a, g) for g in grams):
                calls.append(name)
            return fn(a, *args, **kwargs)
        return call

    for mod in (lattice, sums, theta, zeta):
        monkeypatch.setattr(mod, "cell_radius", counted("cell_radius", lattice.cell_radius), raising=False)
    for name in ("cholesky", "det", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5j]})
    theta_direct(frame, P, _U, 0.8)
    theta_transformed(frame, P, _U, 0.8)
    kzeta_accelerated(frame, P, _U, 2.5)
    assert calls == []


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


def _radii(geom, big, q):
    # from just above 4 D^2, where the integral comparison starts to apply,
    # and just below the first values of Q beyond it, where the remainder
    # is largest against the bound
    D = geom.cell_radius
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
    geom = SumLattice.from_abelian(PolarizedAbelianData.from_tau(*tau), "dual").geometry
    big = 400.0 if decay == 0 else 200.0 / decay
    q = np.concatenate([qc for _ms, qc in ellipsoid_chunks(geom, big, center=center)])
    q = q[q > 1e-12]
    f = sum(amp * q ** (k / 2 - s_re) for k, amp in enumerate(amps)) * np.exp(-decay * q)
    for R in _radii(geom, big, q):
        bound = power_tail(
            R, rank=2, sqrt_det=geom.sqrt_det, cell_radius=geom.cell_radius, s_re=s_re, amps=amps, decay=decay
        )
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
    V, geom = frame.dual_basis, frame.dual_geometry
    tail = zeta._gamma_dual_tail(frame, gf, rhos, A)
    h = frame.reduce_point(u)
    big = 60.0 * A
    chunks = list(ellipsoid_chunks(geom, big, center=-np.linalg.solve(V, h)))
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
    for R in _radii(geom, big, q):
        bound = tail(R)
        if math.isfinite(bound):
            checked += 1
            assert f[q > R].sum() <= bound, (R, f[q > R].sum(), bound)
    assert checked >= 3


def _per_call_power_tail(R, *, rank, sqrt_det, cell_radius, s_re, amps, decay=0.0):
    """power_tail as one loop that recomputes every constant on each call:
    the reference that the constants computed once per tail must match."""
    tau0 = math.sqrt(R) - 2.0 * cell_radius
    if tau0 <= 0 or math.inf in amps:
        return math.inf
    x0 = decay * tau0 * tau0
    total = 0.0
    for k, amp in enumerate(amps):
        if amp == 0:
            continue
        if k - 2.0 * s_re > 2.0 * x0:  # f is not yet decreasing at tau0
            return math.inf
        for j in range(rank):
            p = j + k + 1 - 2.0 * s_re
            if decay > 0:
                try:
                    part = upper_gamma_bound(p / 2, x0) / (2.0 * decay ** (p / 2))
                except (OverflowError, ZeroDivisionError):
                    return math.inf
            elif p >= 0 or p * math.log(tau0) > 700:  # divergent, or beyond float range
                return math.inf
            else:
                part = tau0**p / -p
            total += amp * math.comb(rank - 1, j) * cell_radius ** (rank - 1 - j) * part
    return 2.0 * math.pi ** (rank / 2) / math.gamma(rank / 2) / sqrt_det * total


def _monomial_sets(r):
    """Monomial lists of rank r: constant; degree 2 only (amps with zeros);
    degrees 0 and 3; and one with an infinite scale."""
    e = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    two = tuple(2 * x for x in e[0])
    three = tuple(a + b + c for a, b, c in zip(e[0], e[-1], e[-1]))
    return [
        [((0,) * r, [1.0], 1.0)],
        [(two, [0.5 + 1j], 1.0), (tuple(a + b for a, b in zip(e[0], e[-1])), [0.3], 2.0)],
        [((0,) * r, [2.0], 0.7), (three, [1.0j], 1.0)],
        [((0,) * r, [1.0], 1.0), (two, [1.0], math.inf)],
    ]


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5, 6])
def test_tail_matches_per_call_formula(rank):
    # every constant of a tail is computed once; each value, and so each
    # bisection step of solve_radius, must equal the per-call loop exactly
    rng = np.random.default_rng(rank)
    a = rng.normal(size=(rank, rank))
    geom = Geometry(a @ a.T + 0.5 * np.eye(rank))
    lo = 4.0 * geom.cell_radius**2
    radii = [0.25 * lo, lo] + list(lo * np.geomspace(1.001, 1e6, 40)) + [1e12, 1e300]
    seen = set()
    for monomials in _monomial_sets(rank):
        grow = 1.0 / math.sqrt(geom.lam_min)
        amps = [0.0] * (1 + max(sum(alpha) for alpha, _vec, _scale in monomials))
        for alpha, vec, scale in monomials:
            amps[sum(alpha)] += scale * float(np.max(np.abs(vec))) * grow ** sum(alpha)
        for s_re in (0.0, 1.0, 2.5):
            for decay in (0.0, 0.7, math.pi**2 / 0.5, 1e-300, 1e300):
                for r_min in (0.0, 3.0 * lo):
                    tail = _tail(geom, monomials, s_re, decay=decay, r_min=r_min)
                    consts = dict(rank=rank, sqrt_det=geom.sqrt_det, cell_radius=geom.cell_radius, s_re=s_re, amps=amps)

                    def reference(R):
                        return math.inf if R < r_min else _per_call_power_tail(R, **consts, decay=decay)

                    for R in radii:
                        want = reference(R)
                        assert tail(R) == want, (monomials, s_re, decay, r_min, R)
                        assert power_tail(R, **consts, decay=decay) == _per_call_power_tail(R, **consts, decay=decay)
                        seen.add("inf" if want == math.inf else "zero" if want == 0 else "finite")
                    for tol in (1e-13, 1e-6):
                        try:
                            want = solve_radius(reference, tol, geom, 1e7, "tail")
                        except BudgetExceeded:
                            with pytest.raises(BudgetExceeded):
                                solve_radius(tail, tol, geom, 1e7, "tail")
                        else:
                            assert solve_radius(tail, tol, geom, 1e7, "tail") == want
    assert seen == {"inf", "zero", "finite"}
