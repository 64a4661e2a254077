"""Lattice zeta sums K(Q,P,s) = sum' chi_l P(l)/Q(l)^s and their continuation.

Direct evaluation applies in the absolute-convergence region
2 Re(s) - deg P > rank.  Everywhere else the value is defined through the
split Mellin representation of Gamma(s) K(s): the [A, inf) piece gives
upper incomplete gamma factors on the direct lattice, the (0, A] piece is
Poisson-transformed and integrated term by term against the exact
Laurent-in-t polynomial factor, each monomial contributing one incomplete
gamma with shifted order r/2 + m - s, plus the boundary term -P(0) A^s / s.
The split point A is analytically irrelevant, which is itself a test
surface.
"""

from contextlib import contextmanager
from dataclasses import dataclass
import math

import numpy as np

from .errors import (
    BudgetExceeded,
    GammaOverflow,
    GridTouchesZeroSection,
    NotAbsolutelyConvergent,
    PoleAtS,
    ZeroSectionSingularity,
)
from .incgamma import rgamma, upper_gamma
from .lattice import SNAP_TOL, box_shell, cell_radius, ellipsoid_chunks, ellipsoid_radius
from .polygauss import gaussian_ft
from .sums import CompensatedSum, certified_sum, gaussian_tail, power_tail

DEFAULT_SHELL_CAP = 400
POINT_BUDGET = 2e9  # points a direct sum may visit; the rank-2 s = 2 regime check needs ~1.2e9
AUTO_DIRECT_POINTS = 129**2  # auto mode sums directly only up to this many points
_POLE_TOL = 1e-12


@dataclass
class ZetaValue:
    value: np.ndarray
    s: complex
    regime: str  # 'direct' or 'accelerated'
    error_bound: float
    split_a: float = None

    def scalar(self):
        return complex(self.value[0])


def converges_directly(P, s, rank):
    return 2.0 * complex(s).real - P.degree > rank


def _direct_tail(frame, P, s_re):
    """R -> the closed-form bound on sum over Q(l) > R of |P(l)| Q(l)^{-s_re}."""
    # |y|^2 <= Q / lambda_min(M) for y = B m, so |y^alpha| <= (Q / lambda_min)^{|alpha|/2}
    grow = 1.0 / math.sqrt(float(np.linalg.eigvalsh(frame.q_mat)[0]))
    amps = [0.0] * (P.degree + 1)
    for alpha, vec in P.coeffs.items():
        amps[sum(alpha)] += float(np.max(np.abs(vec))) * grow ** sum(alpha)
    sqrt_det, D = math.sqrt(np.linalg.det(frame.gram)), cell_radius(frame.gram)
    return lambda R: power_tail(R, rank=frame.rank, sqrt_det=sqrt_det, cell_radius=D, s_re=s_re, amps=amps)


def kzeta_direct(frame, P, u, s, tol=1e-10):
    """Sum over the ellipsoid Q(l) <= R in the absolute-convergence region.

    R is solved from the integral-comparison tail before summing, within
    the ellipsoid_radius of POINT_BUDGET points.  Each pair l, -l is summed
    once: chi(-l) = conj chi(l), Q(-l) = Q(l) and P is evaluated at -l.
    """
    s = complex(s)
    if not converges_directly(P, s, frame.rank):
        raise NotAbsolutelyConvergent(
            f"need 2 Re(s) - deg P > {frame.rank}, got s={s}, deg={P.degree}"
        )
    tail = _direct_tail(frame, P, s.real)
    # the tail falls as R grows: bisect sqrt(R) for the smallest R with tail <= tol
    lo, hi = 0.0, math.sqrt(ellipsoid_radius(frame.gram, POINT_BUDGET))
    if tail(hi * hi) > tol:
        raise BudgetExceeded(f"direct zeta: no certified tail <= {tol} within {POINT_BUDGET:.3g} points")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(mid * mid) <= tol else (mid, hi)
    h = frame.reduce_point(u)
    phase = frame.phase_data(u)
    trivial = not np.any(h)  # every character is 1
    constant = P.degree == 0
    acc = CompensatedSum(1 if constant else P.target_dim)
    for ms, q in ellipsoid_chunks(frame.gram, hi * hi, half=True, coords=not (trivial and constant)):
        w = q ** -s.real if s.imag == 0 else np.exp(-s * np.log(q))
        if not trivial:
            chi = frame.char_values(ms, h) if phase is None else frame.char_values_exact(ms, *phase)
        if constant:
            acc.add(w.sum() if trivial else w @ chi.real)
        else:
            y, c = frame.points(ms), 1.0 if trivial else chi[:, None]
            acc.add(w @ (c * P.evaluate_many(y) + np.conj(c) * P.evaluate_many(-y)))
    value = 2.0 * acc.value[0] * P.value_at_zero() if constant else acc.value
    return ZetaValue(value=value, s=s, regime="direct", error_bound=float(tail(hi * hi)))


def kzeta_accelerated(
    frame, P, u, s, split_a=1.0, tol=1e-10, shell_cap=DEFAULT_SHELL_CAP, threads=None
):
    """Analytic continuation by the split-Mellin / incomplete-gamma assembly."""
    s = complex(s)
    A = float(split_a)
    with _double_range(s):
        total, tail = _gamma_k(frame, P, u, s, A, tol / 4, shell_cap, threads)
        rg = rgamma(s)
    return ZetaValue(
        value=total * rg, s=s, regime="accelerated", error_bound=float(tail * abs(rg)), split_a=A
    )


def kzeta_gamma_product(frame, P, u, s, split_a=1.0, tol=1e-10, threads=None):
    """The assembled Gamma(s) * K(s) before dividing by Gamma.

    For u outside the base lattice every piece is entire in s, which the
    suite checks through a Cauchy-integral reconstruction on a small circle.
    """
    with _double_range(s):
        return _gamma_k(frame, P, u, complex(s), float(split_a), tol / 2, DEFAULT_SHELL_CAP, threads)[0]


@contextmanager
def _double_range(s):
    """Report a Gamma factor beyond double range as GammaOverflow, not a traceback.

    The assembly needs Gamma(s) and Gamma(r/2 + m - s); for |Re s| past
    about 171 one of them overflows (math.gamma) or its reciprocal
    underflows to 0 (complex s).
    """
    try:
        yield
    except (OverflowError, ZeroDivisionError):
        raise GammaOverflow(
            f"accelerated zeta: a Gamma factor at s = {s} is outside double range"
        ) from None


def _gamma_k(frame, P, u, s, A, piece_tol, shell_cap, threads):
    """Gamma(s) K(s) by the split at A; returns (total, certified tail).

    Each of the two lattice pieces is certified to piece_tol.
    """
    if A <= 0 or piece_tol <= 0:
        raise ValueError("split point and tol must be positive")
    h = frame.reduce_point(u)
    half = frame.rank / 2.0

    p0 = P.value_at_zero()
    if np.any(p0 != 0) and abs(s) < _POLE_TOL:
        raise PoleAtS("boundary term P(0) A^s / s has a pole at s = 0")

    gf = gaussian_ft(P, frame.q_mat, h=h, pairing=frame.pairing, vol_scale=frame.vol_scale)
    by_tpow = gf.monomials_by_tpower()
    rhos = {m: half + m - s for m in by_tpow}

    # dual-side zero term: only the constant-in-w monomials contribute at w=0
    zero_term = np.zeros(P.target_dim, dtype=complex)
    if frame.in_base_lattice(u):
        for m, monos in by_tpow.items():
            c0 = sum((vec for alpha, vec in monos if sum(alpha) == 0), np.zeros(P.target_dim, dtype=complex))
            if np.any(c0 != 0):
                denom = s - half - m
                if abs(denom) < _POLE_TOL:
                    raise ZeroSectionSingularity(
                        f"dual-side constant term diverges at s = {half + m}"
                    )
                zero_term = zero_term + c0 * A**denom / denom

    sum_i, tail_i, _ = _gamma_weighted_direct(
        frame, P, h, s, A, piece_tol, shell_cap, threads, phase=frame.phase_data(u)
    )
    sum_ii, tail_ii, _ = _gamma_weighted_dual(frame, gf, by_tpow, rhos, h, A, piece_tol, shell_cap, threads)

    total = sum_i + gf.disc_factor * (sum_ii + zero_term)
    if np.any(p0 != 0):
        total = total - p0 * A**s / s
    return total, tail_i + gf.disc_factor * tail_ii


def _gamma_weighted_direct(frame, P, h, s, A, tol, shell_cap, threads, phase=None):
    """sum_{l != 0} chi_l P(l) Gamma(s, A Q(l)) / Q(l)^s with certified tail."""
    coeff = P.coeff_l1()
    growth = frame.basis_norm * math.sqrt(frame.rank)
    # tail bound valid once A Q >= x_min (then |Gamma(s,x)| <= 2 x^{Re s - 1} e^{-x})
    x_min = max(1.0, 2.0 * (s.real - 1.0))
    k_cert = math.ceil(math.sqrt(x_min / (A * frame.sigma_min))) + 1

    def partial(k):
        ms = box_shell(frame.rank, k)
        q = frame.q_values(ms)
        gam = np.array([upper_gamma(s, A * float(x)) for x in q])
        chi = (
            frame.char_values(ms, h)
            if phase is None
            else frame.char_values_exact(ms, *phase)
        )
        weights = chi * gam * np.exp(-s * np.log(q))
        return (P.evaluate_many(frame.points(ms)) * weights[:, None]).sum(axis=0)

    def tail(k):
        return (2.0 * A ** (s.real - 1.0) / frame.sigma_min) * gaussian_tail(
            k,
            rank=frame.rank,
            sigma=frame.sigma_min,
            decay=A,
            coeff=coeff,
            deg=P.degree,
            growth=growth,
        )

    return certified_sum(
        partial, tail, tol, P.target_dim, what="accelerated zeta (direct piece)",
        shell_cap=shell_cap, start=1, k_cert=k_cert, threads=threads,
    )


def _gamma_weighted_dual(frame, gf, by_tpow, rhos, h, A, tol, shell_cap, threads):
    """Dual-lattice sum over w != 0 of the term-by-term Mellin integrals over (0, A]."""
    dual = frame.dual_frame()
    r = frame.rank
    target_dim = gf.target_dim
    qd_sigma = float(np.linalg.eigvalsh(gf.dual_form)[0]) - 1e-12
    h_norm = float(np.linalg.norm(h))
    growth = dual.basis_norm * math.sqrt(r)
    max_rho_re = max((rho.real for rho in rhos.values()), default=0.0)
    x_min = max(1.0, 2.0 * (max_rho_re - 1.0))
    # coefficient for the tail: per monomial, |Gamma(rho,y)/(pi^2 Qd)^rho| <= 2 A^{-Re rho}/y * e^{-y}
    tail_coeff = 0.0
    for m, monos in by_tpow.items():
        rho = rhos[m]
        for _alpha, vec in monos:
            tail_coeff += float(np.max(np.abs(vec))) * 2.0 * A ** (-rho.real)
    tail_coeff /= x_min
    k_cert = (
        math.ceil(
            (math.sqrt(x_min * A / (math.pi**2 * qd_sigma)) + h_norm) / dual.basis_smin
        )
        + 1
    )

    def partial(k):
        ms = box_shell(r, k)
        ws = dual.points(ms) + h
        qd = np.einsum("ij,jk,ik->i", ws, gf.dual_form, ws)
        keep = qd > SNAP_TOL
        ws, qd = ws[keep], qd[keep]
        out = np.zeros(target_dim, dtype=complex)
        if len(ws) == 0:
            return out
        ys = (math.pi**2 / A) * qd
        log_pq = np.log(math.pi**2 * qd)
        for m, monos in by_tpow.items():
            rho = rhos[m]
            gam = np.array([upper_gamma(rho, float(y)) for y in ys])
            factor = gam * np.exp(-rho * log_pq)
            poly_m = np.zeros((len(ws), target_dim), dtype=complex)
            for alpha, vec in monos:
                mono = np.ones(len(ws))
                for j, a in enumerate(alpha):
                    if a:
                        mono = mono * ws[:, j] ** a
                poly_m += mono[:, None] * vec[None, :]
            out = out + (poly_m * factor[:, None]).sum(axis=0)
        return out

    def tail(k):
        return tail_coeff * gaussian_tail(
            k,
            rank=r,
            sigma=qd_sigma * dual.basis_smin**2,
            decay=math.pi**2 / A,
            coeff=1.0,
            deg=gf.poly_degree(),
            growth=growth,
            rho_shift=h_norm / dual.basis_smin,
            amp_shift=h_norm,
        )

    return certified_sum(
        partial, tail, tol, target_dim, what="accelerated zeta (dual piece)",
        shell_cap=shell_cap, k_cert=k_cert, threads=threads,
    )


def kzeta(frame, P, u, s, mode="auto", split_a=1.0, tol=1e-10, threads=None):
    """Dispatch between the direct and accelerated regimes.

    `auto` picks the direct sum only when its tail certifies tol within the
    ellipsoid_radius of AUTO_DIRECT_POINTS points; otherwise the continuation (which
    agrees wherever both converge) is used.
    """
    if mode == "auto":
        cheap = converges_directly(P, s, frame.rank) and (
            _direct_tail(frame, P, complex(s).real)(ellipsoid_radius(frame.gram, AUTO_DIRECT_POINTS)) <= tol
        )
        mode = "direct" if cheap else "accel"
    if mode == "direct":
        return kzeta_direct(frame, P, u, s, tol=tol)
    if mode in ("accel", "accelerated"):
        return kzeta_accelerated(frame, P, u, s, split_a=split_a, tol=tol, threads=threads)
    raise ValueError("mode must be auto, direct or accel")


def torus_distance(frame, u):
    """Distance from u to the base lattice Z^rank (ambient coordinates)."""
    v = frame.reduce_point(u)
    best = math.inf
    for corner in np.ndindex(*(2,) * frame.rank):
        best = min(best, float(np.linalg.norm(v - np.array(corner, dtype=float))))
    return best


def smoothness_scan(frame, P, s, grid, fd_step=0.01, tol=1e-11, mode="accelerated"):
    """Values and finite-difference gradients of the continued sum on a u-grid.

    Each gradient is computed at steps fd_step, fd_step/2 and fd_step/4;
    the stability ratio |g_h|/|g_{h/2}| should sit near 1 and the
    Richardson ratio |g_h - g_{h/2}| / |g_{h/2} - g_{h/4}| near 4 for a
    second-order-smooth integrand.
    """
    rows = []
    for u in grid:
        u = np.asarray(u, dtype=float)
        if torus_distance(frame, u) < 10 * fd_step:
            raise GridTouchesZeroSection(f"grid point {u.tolist()} too close to the lattice")

        def value_at(v):
            return kzeta(frame, P, v, s, mode=mode, tol=tol).value

        val = value_at(u)
        grads = {}
        for step in (fd_step, fd_step / 2, fd_step / 4):
            g = np.zeros((frame.rank, P.target_dim), dtype=complex)
            for j in range(frame.rank):
                e = np.zeros(frame.rank)
                e[j] = step
                g[j] = (value_at(u + e) - value_at(u - e)) / (2 * step)
            grads[step] = g
        g1, g2, g4 = grads[fd_step], grads[fd_step / 2], grads[fd_step / 4]
        denom = np.linalg.norm(g2 - g4)
        rich = float(np.linalg.norm(g1 - g2) / denom) if denom > 0 else math.nan
        stab = float(np.linalg.norm(g1) / np.linalg.norm(g2)) if np.linalg.norm(g2) > 0 else math.nan
        rows.append(
            {
                "u": u.tolist(),
                "value": val,
                "grad": g2,
                "grad_norm": float(np.linalg.norm(g2)),
                "stability_ratio": stab,
                "richardson_ratio": rich,
            }
        )
    return rows
