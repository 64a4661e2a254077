import math
from fractions import Fraction
from pathlib import Path
import time

import numpy as np
import pytest

from polylat import PolarizedAbelianData, SumLattice, currents
from polylat.config import load_config
from polylat.currents import (
    CurrentValue,
    TorsionPoint,
    coefficient,
    dual_coordinate_functional,
    eisenstein_value,
    g_abk,
    g_grade,
    g_total,
    pair_with_test_form,
    pairing_functional,
)
from polylat.errors import BudgetExceeded, OutOfRange, QuadratureUnstable, ZeroSectionSingularity
from polylat.lattice import dual_lattice
from polylat.zeta import kzeta_accelerated

D2_POINT = (0.30, 0.45, 0.20, 0.40)


@pytest.fixture(scope="module")
def tau_i():
    return PolarizedAbelianData.from_tau(0, 1)


@pytest.fixture(scope="module")
def d2(tau_i):
    return PolarizedAbelianData.product(tau_i, tau_i)


def bruteforce_gab0(a, b, u, K=500):
    """Independent direct Eisenstein-Kronecker summation for tau = i.

    chi uses E(lambda, u) with the [[0,-1],[1,0]] pairing; the Hodge
    coordinate of lambda = (m, n) is m + in and the omega contraction is
    -Q/2.  Tail certificate: integral comparison over |lambda| > K - 2.
    """
    mm, nn = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
    mm = mm.ravel().astype(float)
    nn = nn.ravel().astype(float)
    keep = (mm != 0) | (nn != 0)
    mm, nn = mm[keep], nn[keep]
    chi = np.exp(2j * np.pi * (mm * (-u[1]) + nn * u[0]))
    c = mm + 1j * nn
    q = np.pi * (mm * mm + nn * nn)
    val = np.sum(chi * np.conj(c) ** (a - 1) * c ** (b - 1) * (-q / 2) / q ** (a + b))
    tail = (
        math.pi
        / math.pi ** (a + b - 1)
        * (K - 2.0) ** (2 - a - b)
        / (a + b - 2)
    )
    return val, tail


def test_coefficient_values():
    assert coefficient(1, 1, 0, 1, 1) == Fraction(-1)
    assert coefficient(2, 1, 2, 2, 1) == Fraction(3)
    for a, b in ((1, 1), (2, 3), (4, 1)):
        assert abs(coefficient(a, b, 0, 1, 1)) == Fraction(1, 1)
        assert abs(coefficient(a, b, 0, 2, 2)) == Fraction(1, 4)


def test_coefficient_range_errors():
    with pytest.raises(OutOfRange):
        coefficient(0, 1, 0, 1, 1)
    with pytest.raises(OutOfRange):
        coefficient(1, 1, 3, 1, 1)


def test_k_positive_vanishes(tau_i):
    for k in (1, 2):
        val = g_abk(tau_i, 2, 2, k, (0.5, 0.0))
        assert val.is_zero()
        assert val.regime == "vanishing"


def test_zero_section_rejected(tau_i):
    with pytest.raises(ZeroSectionSingularity):
        g_abk(tau_i, 2, 2, 0, (0.0, 0.0))
    with pytest.raises(ZeroSectionSingularity):
        g_abk(tau_i, 2, 2, 0, (1.0, 2.0))


def test_g220_matches_bruteforce(tau_i):
    u = (0.5, 0.0)
    engine = g_abk(tau_i, 2, 2, 0, u, tol=1e-10)
    oracle, tail = bruteforce_gab0(2, 2, u, K=600)
    word = (0, 1)  # one f and one f-bar symbol
    assert abs(engine.component(word) - oracle) <= 1e-8 + tail


def test_periodicity(tau_i):
    a = g_abk(tau_i, 2, 2, 0, (0.5, 0.0), tol=1e-10)
    b = g_abk(tau_i, 2, 2, 0, (1.5, 1.0), tol=1e-10)
    for key in a.components:
        assert abs(a.components[key] - b.components[key]) <= 1e-12


def test_grade2_assembly(tau_i):
    u = (0.5, 0.0)
    grade = g_grade(tau_i, u, 2, tol=1e-10)
    piece = g_abk(tau_i, 1, 1, 0, u, tol=1e-10)
    # single term with (-1)^a = -1 and coefficient(1,1,0) = -1
    assert abs(grade.component(()) - piece.component(())) <= 1e-14
    assert grade.regime == "accelerated"


@pytest.mark.parametrize(
    "case, n", [("tau_i", n) for n in (2, 3, 4, 5)] + [("kappa4", n) for n in (2, 3, 4)] + [("d2", 3), ("d2", 4)]
)
def test_grade_is_sum_of_weighted_pieces(request, case, n):
    """Each grade component is (-1)^a coeff(a, n-a, 0) g_{a,n-a}^0 of the one a
    whose word it is (the words of different a are disjoint)."""
    u = D2_POINT if case == "d2" else (0.31, 0.47)
    if case == "kappa4":  # index 4: the coefficients are +-1/4, not +-1
        data = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "kappa4.cfg")).data
    else:
        data = request.getfixturevalue(case)
    kappa = dual_lattice(data).kappa
    grade = g_grade(data, u, n, tol=1e-10)
    expected = {}
    for a in range(1, n):
        weight = (-1) ** a * float(coefficient(a, n - a, 0, data.d, kappa))
        for key, val in g_abk(data, a, n - a, 0, u, tol=1e-10).components.items():
            assert key not in expected
            expected[key] = weight * val
    assert set(grade.components) == set(expected)
    scale = max(abs(v) for v in expected.values())
    for key, val in expected.items():
        assert abs(grade.components[key] - val) <= 1e-13 * scale, key


def test_grade_budget_before_allocation(d2, monkeypatch):
    # d = 2 grade 28 has 4495 monomials x 21924 components: refused from
    # (d, n, rank) before any product of linear forms is expanded
    def no_expansion(*args, **kwargs):
        raise AssertionError("expanded before the size check")

    monkeypatch.setattr(currents, "linear_form_products", no_expansion)
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="^grade 28: 9.85e\\+07 monomials x components exceed 1e\\+06$"):
        g_grade(d2, D2_POINT, 28)
    with pytest.raises(BudgetExceeded):
        g_abk(d2, 14, 14, 0, D2_POINT)
    assert time.perf_counter() - start < 1.0


def test_grade_is_one_zeta_call(tau_i, d2, monkeypatch):
    orders = []

    def counted(frame, P, u, s, **kw):
        orders.append(s)
        return kzeta_accelerated(frame, P, u, s, **kw)

    monkeypatch.setattr(currents, "kzeta_accelerated", counted)
    g_grade(tau_i, (0.31, 0.47), 5)
    assert orders == [5]
    orders.clear()
    g_grade(d2, D2_POINT, 3)
    assert orders == [3]
    orders.clear()
    g_total(tau_i, (0.31, 0.47), 4)
    assert orders == [2, 3, 4]
    orders.clear()
    for k in (1, 2):
        assert g_abk(tau_i, 2, 2, k, (0.5, 0.0)).regime == "vanishing"
    assert orders == []


def test_hodge_swap_conjugation(tau_i):
    # at real u: conj(g_{a,b}) = (-1)^{a+b} g_{b,a} (lambda -> -lambda plus
    # character conjugation), so the assembled grade is conjugated by
    # swapping the two Hodge symbol alphabets in each word
    u = (0.31, 0.47)
    ab = g_abk(tau_i, 3, 2, 0, u, tol=1e-10)
    ba = g_abk(tau_i, 2, 3, 0, u, tol=1e-10)
    v1 = ab.component((0, 1, 1))  # f f-bar^2
    v2 = ba.component((0, 0, 1))  # f^2 f-bar
    assert abs(np.conj(v1) - (-1) ** 5 * v2) <= 1e-12
    grade = g_grade(tau_i, u, 5, tol=1e-10)
    for word in [(0, 0, 1), (0, 1, 1), (0, 0, 0)]:
        swapped = tuple(sorted(1 - s for s in word))
        assert abs(np.conj(grade.component(word)) - grade.component(swapped)) <= 1e-11


def test_grades_vs_bruteforce(tau_i):
    u = (0.31, 0.47)
    for n in (4, 5):
        grade = g_grade(tau_i, u, n, tol=1e-10)
        for a in range(1, n):
            b = n - a
            oracle, tail = bruteforce_gab0(a, b, u, K=500)
            word = tuple(sorted([0] * (b - 1) + [1] * (a - 1)))
            expect = (-1) ** (a + 1) * oracle
            assert abs(grade.component(word) - expect) <= 1e-7 + tail, (n, a, b)


def test_certificate_monotonicity(tau_i, d2):
    for data, u, n in ((tau_i, (0.31, 0.47), 4), (d2, D2_POINT, 3)):
        loose = g_grade(data, u, n, tol=1e-6)
        tight = g_grade(data, u, n, tol=1e-10)
        assert tight.error_bound < loose.error_bound
        for key in loose.components:
            assert abs(loose.components[key] - tight.components[key]) <= loose.error_bound + 1e-12
        # the grade is certified as one vector: its bound covers every component
        reference = g_grade(data, u, n, tol=1e-13)
        for tol in (1e-4, 1e-8):
            value = g_grade(data, u, n, tol=tol)
            for key, ref in reference.components.items():
                assert abs(value.components[key] - ref) <= value.error_bound + reference.error_bound, (n, tol, key)


def test_abel_limit_corroborates_grade2(tau_i):
    """Theta-weighted partial sums extrapolated t -> 0 vs the continuation."""
    frame = SumLattice.from_abelian(tau_i, "dual")
    for u in ((0.5, 0.0), (0.31, 0.47), (0.25, 0.625)):
        engine = g_grade(tau_i, u, 2, tol=1e-11).component(())

        def smoothed(t, K=60):
            mm, nn = np.meshgrid(np.arange(-K, K + 1), np.arange(-K, K + 1), indexing="ij")
            mm = mm.ravel().astype(float)
            nn = nn.ravel().astype(float)
            keep = (mm != 0) | (nn != 0)
            mm, nn = mm[keep], nn[keep]
            chi = np.exp(2j * np.pi * (mm * (-u[1]) + nn * u[0]))
            q = np.pi * (mm * mm + nn * nn)
            return np.sum(chi * np.exp(-t * q) * (-q / 2) / q**2)

        s1, s2 = smoothed(0.04), smoothed(0.02)
        extrapolated = 2 * s2 - s1  # Richardson in t
        assert abs(extrapolated - engine) <= 1e-4, u


def test_g_total_structure(tau_i):
    grades = g_total(tau_i, (0.31, 0.47), 4, tol=1e-9)
    assert set(grades) == {2, 3, 4}
    for n, cv in grades.items():
        assert cv.sym_degree == n - 2
        assert cv.form_degree == 0


def test_torsion_point_validation():
    x = TorsionPoint.from_rationals((Fraction(1, 2), Fraction(1, 2)))
    assert x.order == 2
    with pytest.raises(ZeroSectionSingularity):
        TorsionPoint.from_rationals((Fraction(1), Fraction(2)))


def test_eisenstein_rejects_zero_section(tau_i):
    with pytest.raises(ZeroSectionSingularity):
        eisenstein_value(tau_i, (Fraction(0), Fraction(0)), 2, 6)


def test_eisenstein_requires_grade(tau_i):
    x = TorsionPoint.from_rationals((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(OutOfRange):
        eisenstein_value(tau_i, x, 2, 4)


def test_eisenstein_half_torsion_parity(tau_i):
    """Odd-sym grades vanish at 2-torsion: engine and oracle both give 0."""
    x = TorsionPoint.from_rationals((Fraction(1, 2), Fraction(1, 2)))
    ev = eisenstein_value(tau_i, x, 2, 6, tol=1e-10)
    # oracle: assemble grade 5 by brute force, contract, compare
    u = (0.5, 0.5)
    for (word, _ext), got in ev.components.items():
        oracle = 0j
        for a in range(1, 5 + 1 - 1):
            b = 5 - a
            if b < 1:
                continue
            val, _tail = bruteforce_gab0(a, b, u, K=300)
            gw = tuple(sorted([0] * (b - 1) + [1] * (a - 1)))
            contrib = (-1) ** (a + 1) * val
            # contract slot 0 (symbol 0) of gw and collect on `word`
            cnt = gw.count(0)
            if cnt and tuple(sorted(gw[gw.index(0) + 1 :] + gw[: gw.index(0)])) == word:
                oracle += Fraction(cnt, len(gw)) * contrib
        assert abs(got - oracle) <= 1e-7


def test_eisenstein_third_torsion_nonzero_vs_oracle(tau_i):
    x = TorsionPoint.from_rationals((Fraction(1, 3), Fraction(0)))
    ev = eisenstein_value(tau_i, x, 2, 6, tol=1e-10)
    assert ev.norm() > 1e-4
    u = (1 / 3, 0.0)
    grade_words = {}
    for a in range(1, 5):
        b = 5 - a
        val, tail = bruteforce_gab0(a, b, u, K=500)
        gw = tuple(sorted([0] * (b - 1) + [1] * (a - 1)))
        grade_words[gw] = grade_words.get(gw, 0j) + (-1) ** (a + 1) * val
    # contract with the default functional (coordinate of symbol 0)
    oracle = {}
    for gw, v in grade_words.items():
        cnt = gw.count(0)
        if cnt == 0:
            continue
        rest = list(gw)
        rest.remove(0)
        key = tuple(rest)
        oracle[key] = oracle.get(key, 0j) + Fraction(cnt, len(gw)) * v
    for (word, _ext), got in ev.components.items():
        assert abs(got - oracle.get(word, 0j)) <= 1e-7, word


def test_eisenstein_linear_in_functional(tau_i):
    x = TorsionPoint.from_rationals((Fraction(1, 3), Fraction(0)))
    chi1 = dual_coordinate_functional(tau_i, 0)
    chi2 = dual_coordinate_functional(tau_i, 1)
    chi_sum = {k: chi1[k] + chi2[k] for k in chi1}
    e1 = eisenstein_value(tau_i, x, 2, 6, tol=1e-10, functional=chi1)
    e2 = eisenstein_value(tau_i, x, 2, 6, tol=1e-10, functional=chi2)
    es = eisenstein_value(tau_i, x, 2, 6, tol=1e-10, functional=chi_sum)
    keys = set(e1.components) | set(e2.components) | set(es.components)
    for key in keys:
        lhs = es.components.get(key, 0j)
        rhs = e1.components.get(key, 0j) + e2.components.get(key, 0j)
        assert abs(lhs - rhs) <= 1e-12


def test_eisenstein_grade_coupling(tau_i):
    """Value depends only on the grade l+3 piece: n_max padding is inert."""
    x = TorsionPoint.from_rationals((Fraction(1, 3), Fraction(0)))
    a = eisenstein_value(tau_i, x, 2, 5, tol=1e-10)
    b = eisenstein_value(tau_i, x, 2, 8, tol=1e-10)
    for key in a.components:
        assert abs(a.components[key] - b.components.get(key, 0j)) <= 1e-13


def test_pairing_functional_is_linear_functional(tau_i):
    chi = pairing_functional(tau_i, [1.0, 0.0])
    assert set(chi) == {0, 1}
    assert all(isinstance(v, complex) for v in chi.values())


def test_pair_with_test_form_zero():
    res = pair_with_test_form(lambda u: 1.0 + 0j, lambda u: 0.0, eps=0.05, quad_n=32)
    assert res["value"] == 0


def test_pair_with_test_form_constant():
    # constant component against a separable smooth 2-form coefficient of
    # known integral: int sin^2(pi x) sin^2(pi y) = 1/4 (minus the eps ball)
    def bump(u):
        return math.sin(math.pi * u[0]) ** 2 * math.sin(math.pi * u[1]) ** 2

    res = pair_with_test_form(lambda u: 2.0 + 0j, bump, eps=0.04, quad_n=96)
    assert abs(res["value"] - 0.5) < 2e-3


def test_pair_with_test_form_grade4_stability(tau_i):
    """A smooth grade-4 component paired against a bump form, eps-stable."""
    cache = {}

    def component(u):
        key = (round(float(u[0]), 6), round(float(u[1]), 6))
        if key not in cache:
            frame = SumLattice.from_abelian(tau_i, "dual")
            from polylat.polygauss import VectorPolynomial

            P = VectorPolynomial(2, {(2, 0): [1.0]})
            cache[key] = kzeta_accelerated(frame, P, list(key), 4.0, tol=1e-8).scalar()
        return cache[key]

    def bump(u):
        # supported away from the excised ball
        d2 = min((u[0] - 0.5) ** 2 + (u[1] - 0.5) ** 2, 1.0)
        return math.exp(-20 * d2)

    res = pair_with_test_form(component, bump, eps=0.05, quad_n=24)
    assert np.isfinite(abs(res["value"]))
    assert res["eps_trend"] <= 1e-4


def test_pair_with_test_form_unstable_flagged():
    # a deliberately non-integrable mock component must be flagged
    def spike(u):
        wrapped = np.minimum(np.asarray(u), 1.0 - np.asarray(u))
        d2 = float(np.sum(wrapped**2))
        return 1.0 / max(d2, 1e-12) ** 2

    with pytest.raises(QuadratureUnstable):
        pair_with_test_form(spike, lambda u: 1.0, eps=0.1, quad_n=48)


def test_g_abk_rank4_vs_independent_wedge_oracle():
    """d=2 pipeline (Hodge basis, words, omega^2 contraction) vs scratch oracle."""
    d2 = PolarizedAbelianData.product(
        PolarizedAbelianData.from_tau(0, 1), PolarizedAbelianData.from_tau(0, 1)
    )
    u = (0.30, 0.45, 0.20, 0.40)
    a_idx, b_idx = 4, 4  # a+b = 8: absolutely convergent at rank 4
    engine = g_abk(d2, a_idx, b_idx, 0, u, tol=1e-9)

    # independent exterior algebra on numeric coefficients
    def wedge(x, y):
        out = {}
        for ea, ca in x.items():
            for eb, cb in y.items():
                if set(ea) & set(eb):
                    continue
                arr = list(ea + eb)
                sign = 1
                for i in range(len(arr)):
                    for j in range(len(arr) - 1 - i):
                        if arr[j] > arr[j + 1]:
                            arr[j], arr[j + 1] = arr[j + 1], arr[j]
                            sign = -sign
                out[tuple(arr)] = out.get(tuple(arr), 0j) + sign * ca * cb
        return out

    def interior(v, form):
        out = {}
        for ext, cc in form.items():
            for pos, idx in enumerate(ext):
                rest = ext[:pos] + ext[pos + 1 :]
                out[rest] = out.get(rest, 0j) + ((-1) ** pos) * v[idx] * cc
        return out

    E = d2.e_float()
    omega = {
        (i, j): 2j * np.pi * E[i, j] / 2
        for i in range(4)
        for j in range(i + 1, 4)
        if E[i, j]
    }
    om2 = wedge(omega, omega)
    J = d2.j_float()
    pm = (np.eye(4) - 1j * J) / 2
    pp = pm.conj()
    table = {}
    for q_ in range(4):
        inner = interior(np.eye(4)[q_], om2)
        for p_ in range(4):
            table[(p_, q_)] = interior(np.eye(4)[p_], inner)
    exts = sorted({e for f in table.values() for e in f})

    K = 14
    grids = np.meshgrid(*([np.arange(-K, K + 1)] * 4), indexing="ij")
    ms = np.stack([g.ravel() for g in grids], axis=1).astype(float)
    ms = ms[np.any(ms != 0, axis=1)]
    qv = np.pi * (ms**2).sum(axis=1)
    chi = np.exp(2j * np.pi * (ms @ (E @ np.array(u))))
    lm = ms @ pm.T
    lp = ms @ pp.T
    c1 = ms[:, 0] + 1j * ms[:, 1]
    c2 = ms[:, 2] + 1j * ms[:, 3]
    oracle = {}
    for k1 in range(b_idx):
        wf = math.comb(b_idx - 1, k1)
        cf = c1**k1 * c2 ** (b_idx - 1 - k1)
        for k2 in range(a_idx):
            wfb = math.comb(a_idx - 1, k2)
            cfb = np.conj(c1) ** k2 * np.conj(c2) ** (a_idx - 1 - k2)
            word = tuple(
                sorted([0] * k1 + [1] * (b_idx - 1 - k1) + [2] * k2 + [3] * (a_idx - 1 - k2))
            )
            for ext in exts:
                tq = np.zeros(len(ms), dtype=complex)
                for (p_, q_), f in table.items():
                    if ext in f:
                        tq += lm[:, p_] * lp[:, q_] * f[ext]
                val = np.sum(chi * wf * cf * wfb * cfb * tq / qv ** (a_idx + b_idx))
                key = (word, ext)
                oracle[key] = oracle.get(key, 0j) + val
    # |lambda|^{-10} decay: box tail is far below the comparison tolerance
    worst = max(abs(engine.components.get(k, 0j) - v) for k, v in oracle.items())
    assert worst <= 1e-9
    assert sum(1 for v in engine.components.values() if abs(v) > 1e-12) > 50


def test_current_value_container():
    cv = CurrentValue(
        sym_degree=1,
        form_degree=0,
        components={((0,), ()): 1.5 + 0j},
        point=(0.5, 0.0),
        regime="accelerated",
        error_bound=1e-10,
    )
    assert cv.component((0,)) == 1.5 + 0j
    assert cv.component((1,)) == 0j
    assert cv.norm() == 1.5
