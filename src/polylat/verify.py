"""Aggregated verification battery behind `polylat suite run`.

Every check returns a record {check, status, detail}; the battery is
deterministic (fixed seeds, sequential reduction) so two runs emit
byte-identical output.
"""

from fractions import Fraction
import math
import random

import numpy as np

from . import ratlin
from .bm import BLOCK_POINTS, closedness_residual, sphere_integral
from .currents import TorsionPoint, eisenstein_value, g_grade
from .lattice import PolarizedAbelianData, SumLattice, hodge_split, q_form
from .polygauss import VectorPolynomial, dual_form, gaussian_ft
from .symalg import (
    SymElem,
    c_n_contraction,
    gamma_vs_delta,
    psi_n_matrix,
    splitting_grading_check,
    theta_ladder_check,
)
from .theta import theta_direct, theta_transformed
# random_form is re-exported: the tests draw their forms from here
from .torus import flatness_holds, random_form
from .zeta import (
    kzeta_accelerated,
    kzeta_direct,
    kzeta_gamma_product,
    smoothness_scan,
    torus_distance,
)

JACOBI_THETA = 1.0864348112133080  # sum e^{-pi n^2} = pi^{1/4} / Gamma(3/4)
ZETA_S2 = 6.02681203969194  # 4 zeta(2) beta(2)
ZETA_S3 = 4.65891361560384  # 4 zeta(3) beta(3)


def random_abelian_data(rng, rank):
    """Random polarized data with exact J (rational tau) and small index."""
    if rank == 2:
        x = Fraction(rng.randrange(-2, 3), 4)
        y = Fraction(rng.randrange(2, 7), 3)
        scale = rng.choice([1, 1, 2])
        return PolarizedAbelianData.from_tau(x, y, e_scale=scale)
    if rank == 4:
        return PolarizedAbelianData.product(
            random_abelian_data(rng, 2), random_abelian_data(rng, 2)
        )
    raise ValueError("rank must be 2 or 4")


def _record(name, ok, **detail):
    return {"check": name, "status": "pass" if ok else "fail", "detail": detail}


def check_lattice_conventions(data):
    # lattice inside dual: E^T e_i integral
    et = ratlin.transpose(ratlin.frac_matrix(data.E))
    inside = all(
        all(x.denominator == 1 for x in ratlin.mat_vec(et, col))
        for col in ratlin.identity(data.rank)
    )
    q1 = q_form(data, [1] + [0] * (data.rank - 1))
    q2 = q_form(data, [2] + [0] * (data.rank - 1))
    quad_ok = abs(q2 - 4 * q1) < 1e-12 * max(1.0, q2)
    hv = hodge_split(data, [1] + [0] * (data.rank - 1))
    jf = data.j_float()
    eig_ok = (
        np.max(np.abs(jf @ hv.minus10 - 1j * hv.minus10)) < 1e-12
        and np.max(np.abs(jf @ hv.zero_minus1 + 1j * hv.zero_minus1)) < 1e-12
    )
    recon_ok = np.max(np.abs(hv.minus10 + hv.zero_minus1 - np.eye(data.rank)[0])) < 1e-12
    # pairing of the Hodge components is real and equals Q
    pair = 2j * math.pi * (hv.minus10 @ data.e_float() @ hv.zero_minus1)
    pair_ok = abs(pair.imag) < 1e-12 and abs(pair.real - q1) < 1e-10
    ok = inside and quad_ok and eig_ok and recon_ok and pair_ok
    return _record(
        "lattice_conventions",
        ok,
        kappa=abs(data.det_e()),
        det_e=data.det_e(),
        q_e1=q1,
        hodge_pairing_imag=abs(pair.imag),
    )


def check_theta_transform(seed=0, n_configs=20, tol=1e-13):
    rng = random.Random(seed)
    worst = 0.0
    cases = []
    for i in range(n_configs):
        rank = 2 if i % 2 == 0 else 4
        data = random_abelian_data(rng, rank)
        frame = SumLattice.from_abelian(data, side="dual")
        t = 0.2 + 4.8 * rng.random()
        u = [rng.randrange(0, 8) / 8 + rng.random() / 64 for _ in range(rank)]
        P = VectorPolynomial.constant(1.0, rank)
        if i % 5 == 4:
            alpha = [0] * rank
            alpha[rng.randrange(rank)] = 2
            P = VectorPolynomial(rank, {tuple(alpha): [1.0]})
        a = theta_direct(frame, P, u, t, tol=tol)
        b = theta_transformed(frame, P, u, t, tol=tol)
        denom = max(float(np.max(np.abs(a.value))), 1e-30)
        rel = float(np.max(np.abs(a.value - b.value))) / denom
        worst = max(worst, rel)
        cases.append({"rank": rank, "t": round(t, 6), "rel": rel})
    return _record("theta_transformation_law", worst <= 1e-10, worst_rel=worst, cases=len(cases))


def check_theta_jacobi():
    frame = SumLattice.euclidean(1, [[math.pi]])
    res = theta_direct(frame, VectorPolynomial.constant(1.0, 1), [0.0], 1.0, tol=1e-12)
    err = abs(res.scalar().real - JACOBI_THETA)
    tr = theta_transformed(frame, VectorPolynomial.constant(1.0, 1), [0.0], 1.0, tol=1e-12)
    fixed_pt = abs(res.scalar() - tr.scalar())
    return _record(
        "theta_jacobi_selfdual",
        err <= 1e-9 and fixed_pt <= 1e-12,
        value=res.scalar().real,
        error=err,
        selfdual_gap=fixed_pt,
    )


def check_poisson(data):
    """|direct - transformed| of the theta sum at t = 1 on the dual frame of
    data, each side certified to 1e-12: P = 1 at h = 0, P = x_1^2 at h = (1/3, 0, ...)."""
    frame = SumLattice.from_abelian(data, "dual")
    rank = data.rank
    cases = (
        (VectorPolynomial.constant(1.0, rank), [0.0] * rank),
        (VectorPolynomial(rank, {(2,) + (0,) * (rank - 1): [1.0]}), [1.0 / 3.0] + [0.0] * (rank - 1)),
    )
    residuals = []
    for P, h in cases:
        lhs = theta_direct(frame, P, h, 1.0, tol=1e-12).value
        rhs = theta_transformed(frame, P, h, 1.0, tol=1e-12).value
        residuals.append(float(np.max(np.abs(lhs - rhs))))
    r0, r1 = residuals
    ok = r0 <= 1e-10 and r1 <= 1e-10
    return _record("poisson_summation", ok, residual_h0=r0, residual_h13=r1)


def check_zeta_regimes(full=False):
    frame = SumLattice.euclidean(2)
    P = VectorPolynomial.constant(1.0, 2)
    detail = {}
    ok = True
    va3 = kzeta_accelerated(frame, P, [0, 0], 3.0, tol=1e-11)
    vd3 = kzeta_direct(frame, P, [0, 0], 3.0, tol=4e-9)
    detail["s3_accel"] = va3.scalar().real
    detail["s3_gap"] = abs(va3.scalar() - vd3.scalar())
    ok &= abs(va3.scalar().real - ZETA_S3) <= 1e-8 and detail["s3_gap"] <= 1e-8
    va2 = kzeta_accelerated(frame, P, [0, 0], 2.0, tol=1e-11)
    detail["s2_accel"] = va2.scalar().real
    ok &= abs(va2.scalar().real - ZETA_S2) <= 1e-8
    if full:
        vd2 = kzeta_direct(frame, P, [0, 0], 2.0, tol=8e-9)
        detail["s2_gap"] = abs(va2.scalar() - vd2.scalar())
        ok &= detail["s2_gap"] <= 1e-8
    return _record("zeta_regime_agreement", bool(ok), **detail)


def check_zeta_a_independence(seed=1, n_points=5):
    rng = random.Random(seed)
    data = PolarizedAbelianData.from_tau(0, 1)
    frame = SumLattice.from_abelian(data, "dual")
    P = VectorPolynomial.constant(1.0, 2)
    worst = 0.0
    for _ in range(n_points):
        u = [rng.randrange(1, 8) / 8, rng.randrange(1, 8) / 8]
        s = complex(0.5 + 2.5 * rng.random(), -1.0 + 2.0 * rng.random())
        vals = [
            kzeta_accelerated(frame, P, u, s, split_a=a, tol=1e-12).scalar()
            for a in (0.5, 1.0, 2.0)
        ]
        scale = max(max(abs(v) for v in vals), 1e-30)
        spread = max(abs(a - b) for a in vals for b in vals) / scale
        worst = max(worst, spread)
    return _record("zeta_split_point_independence", worst <= 1e-9, worst_spread=worst)


def check_zeta_entirety():
    """Cauchy reconstruction of Gamma(s)K(s) on a circle: entire for u off the lattice."""
    data = PolarizedAbelianData.from_tau(0, 1)
    frame = SumLattice.from_abelian(data, "dual")
    P = VectorPolynomial.constant(1.0, 2)
    center = complex(1.2, 0.3)
    radius = 0.5
    n = 32
    vals = []
    for k in range(n):
        s = center + radius * np.exp(2j * math.pi * k / n)
        vals.append(kzeta_gamma_product(frame, P, [0.25, 0.375], s, tol=1e-12)[0])
    mean = sum(vals) / n
    direct = kzeta_gamma_product(frame, P, [0.25, 0.375], center, tol=1e-12)[0]
    err = abs(mean - direct) / max(abs(direct), 1e-30)
    return _record("zeta_gamma_product_entire", err <= 1e-6, cauchy_error=err)


def check_smoothness(grid_n=4):
    data = PolarizedAbelianData.from_tau(0, 1)
    frame = SumLattice.from_abelian(data, "dual")
    P = VectorPolynomial(2, {(2, 0): [1.0], (1, 1): [0.5], (0, 2): [1.0]})
    grid = [
        ((i + 0.5) / grid_n, (j + 0.5) / grid_n)
        for i in range(grid_n)
        for j in range(grid_n)
    ]
    # fd guard: every grid point must sit >= 10 steps from the lattice
    min_dist = min(torus_distance(frame, u) for u in grid)
    fd_step = min(0.01, 0.09 * min_dist)
    rows = smoothness_scan(frame, P, 2.0, grid, fd_step=fd_step, tol=1e-12)
    finite = all(np.all(np.isfinite(np.abs(r["value"]))) for r in rows)
    ratios = [r["richardson_ratio"] for r in rows if np.isfinite(r["richardson_ratio"])]
    med = float(np.median(ratios))
    ok = finite and 3.5 <= med <= 4.5
    return _record("zeta_smoothness_scan", ok, median_richardson=med, points=len(rows))


def check_gaussian_transform(seed=2, n_cases=6):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        r = int(rng.integers(1, 3))
        a = rng.normal(size=(r, r))
        m = a @ a.T + 0.4 * np.eye(r)
        deg = int(rng.integers(0, 4))
        alpha = tuple(int(x) for x in rng.multinomial(deg, np.ones(r) / r))
        P = VectorPolynomial(r, {alpha: [1.0]})
        t = 0.5 + 1.5 * rng.random()
        h = rng.uniform(-0.5, 0.5, size=r)
        p = rng.uniform(-0.7, 0.7, size=r)
        gf = gaussian_ft(P, m, h=h)
        n, L = 220, 8.0 / math.sqrt(t * float(np.linalg.eigvalsh(m)[0]))
        xs = np.linspace(-L, L, n)
        grids = np.meshgrid(*([xs] * r), indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
        qv = np.einsum("ij,jk,ik->i", pts, m, pts)
        phase = 2j * math.pi * (pts @ (p + h))
        vals = P.evaluate_many(pts)[:, 0] * np.exp(-t * qv + phase)
        quad = vals.sum() * (xs[1] - xs[0]) ** r
        closed = gf.evaluate(p, t)[0]
        scale = max(abs(closed), abs(quad), 1e-12)
        worst = max(worst, abs(quad - closed) / scale)
        dd = dual_form(dual_form(m))
        worst_dd = float(np.max(np.abs(dd - m)))
        worst = max(worst, worst_dd)
    return _record("gaussian_transform_quadrature", worst <= 1e-8, worst_rel=worst)


def check_algebra():
    ok = True
    for m in (2, 4):
        for n in range(0, 5):
            *_, bij = psi_n_matrix(m, n)
            ok &= bij
    rng = random.Random(4)
    for m in (2, 4):
        els = [tuple(rng.randrange(-5, 6) for _ in range(m)) for _ in range(50)]
        ok &= all(gamma_vs_delta(m, els))
    psi_fail_seen = True
    for n in range(0, 6):
        for hd in (1, 2, 4):
            psi_ok, theta_ok = theta_ladder_check(hd, n)
            ok &= theta_ok
            if n >= 1:
                psi_fail_seen &= not psi_ok
    ok &= psi_fail_seen
    ok &= splitting_grading_check(2, 3) and splitting_grading_check(4, 2)
    eps = lambda i: Fraction(1) if i == 0 else Fraction(0)
    unit = SymElem(3, 4, {(0, 0, 0, 0): Fraction(1)})
    ok &= c_n_contraction(eps, unit) == SymElem(3, 3, {(0, 0, 0): Fraction(1)})
    return _record("exact_algebra_suite", bool(ok))


def check_flatness(n_forms=200, seed=6):
    return _record("symbolic_flatness", flatness_holds(n_forms, seed), forms=n_forms)


def _eisenstein_kronecker_sums(u, pairs, K):
    """Brute-force sums over 0 < max(|m|, |n|) <= K of the (a, b) current terms.

    chi(m, n) conj(c)^(a-1) c^(b-1) (-q/2) / q^(a+b) with c = m + i n,
    q = pi |c|^2 and chi = exp(2 pi i (n u0 - m u1)); the grid is taken in
    blocks of rows of m, BLOCK_POINTS points at a time, and every pair is
    summed in the same pass, with chi (-q/2) / q^n formed once per grade n.
    """
    ks = np.arange(-K, K + 1)
    em = np.exp(-2j * np.pi * ks * u[1])
    en = np.exp(2j * np.pi * ks * u[0])
    sums = dict.fromkeys(pairs, 0j)
    top = max(a + b for a, b in pairs) - 2  # the highest power of c a term needs
    step = BLOCK_POINTS // len(ks)
    for lo in range(0, len(ks), step):
        mm = ks[lo : lo + step, None].astype(float)
        c = (mm + 1j * ks).ravel()
        chi = (em[lo : lo + step, None] * en).ravel()
        q = np.pi * (mm * mm + ks * ks).ravel()
        if lo <= K < lo + step:  # the origin is left out
            keep = q != 0
            c, chi, q = c[keep], chi[keep], q[keep]
        c_pow = [np.ones_like(c)]
        for _ in range(top):
            c_pow.append(c_pow[-1] * c)
        chi_q = chi * (-q / 2)
        weight = {n: chi_q / q ** n for n in {a + b for a, b in pairs}}
        for a, b in pairs:
            sums[a, b] += np.sum(weight[a + b] * np.conj(c_pow[a - 1]) * c_pow[b - 1])
    return sums


def check_current_oracle(grades=(4,), seed=8):
    data = PolarizedAbelianData.from_tau(0, 1)
    rng = random.Random(seed)
    u = (rng.randrange(2, 9) / 16, rng.randrange(2, 9) / 16)
    sums = _eisenstein_kronecker_sums(u, [(a, n - a) for n in grades for a in range(1, n)], K=600)
    worst = 0.0
    for n in grades:
        gr = g_grade(data, u, n, tol=1e-10)
        for a in range(1, n):
            b = n - a
            word = tuple(sorted([0] * (b - 1) + [1] * (a - 1)))
            got = gr.component(word)
            # assembled sign: (-1)^a * coefficient(a,b,0,1,1) = (-1)^{a+1}
            expect = (-1) ** (a + 1) * sums[a, b]
            # remove the other (a', b') contribution sharing this word: none for d=1
            worst = max(worst, abs(got - expect))
    return _record("current_vs_bruteforce", worst <= 1e-7, worst_abs=worst, grades=list(grades))


def check_eisenstein():
    data = PolarizedAbelianData.from_tau(0, 1)
    x = TorsionPoint.from_rationals((Fraction(1, 2), Fraction(1, 2)))
    ev = eisenstein_value(data, x, 2, 6, tol=1e-10)
    # parity: odd-sym grades vanish identically at 2-torsion
    half_ok = ev.norm() <= 1e-9
    x3 = TorsionPoint.from_rationals((Fraction(1, 3), Fraction(0)))
    ev3 = eisenstein_value(data, x3, 2, 6, tol=1e-10)
    nonzero_ok = ev3.norm() > 1e-4
    return _record(
        "eisenstein_torsion",
        half_ok and nonzero_ok,
        half_torsion_norm=ev.norm(),
        third_torsion_norm=ev3.norm(),
    )


def check_bm(full=False):
    ok = True
    detail = {}
    rs = (0.2, 0.4, 0.6, 0.8)
    worst1 = max(abs(sphere_integral(1, r, 48) - 1.0) for r in rs)
    detail["d1_worst"] = worst1
    ok &= worst1 <= 1e-10
    rs2 = rs if full else (0.4,)
    worst2 = max(abs(sphere_integral(2, r, 32) - 1.0) for r in rs2)
    detail["d2_worst"] = worst2
    ok &= worst2 <= 1e-6
    r1 = closedness_residual(1, [0.5 + 0.1j], 1e-2)
    r2 = closedness_residual(1, [0.5 + 0.1j], 5e-3)
    ratio = r1 / r2 if r2 > 0 else float("nan")
    detail["closedness_ratio"] = ratio
    ok &= 3.5 <= ratio <= 4.5
    return _record("bochner_martinelli", bool(ok), **detail)


def run_suite(data=None, quick=True):
    """The full battery; returns the list of records (all deterministic)."""
    if data is None:
        data = PolarizedAbelianData.from_tau(0, 1)
    records = [
        check_lattice_conventions(data),
        check_theta_jacobi(),
        check_gaussian_transform(),
        check_poisson(data),
        check_theta_transform(n_configs=6 if quick else 20),
        check_zeta_regimes(full=not quick),
        check_zeta_a_independence(),
        check_zeta_entirety(),
        check_smoothness(grid_n=2 if quick else 8),
        check_algebra(),
        check_flatness(n_forms=40 if quick else 200),
        check_current_oracle(grades=(4,) if quick else (4, 5, 6)),
        check_eisenstein(),
        check_bm(full=not quick),
    ]
    return records
