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
    GammaOverflow,
    GridTouchesZeroSection,
    NotAbsolutelyConvergent,
    PoleAtS,
    ZeroSectionSingularity,
)
from .incgamma import rgamma, upper_gamma
from .lattice import ellipsoid_chunks, ellipsoid_radius, integral_rows
from .sums import _dual_sum, _dual_tail, _paired_sum, _tail, solve_radius

POINT_BUDGET = 2e9  # points a direct sum may visit; the rank-2 s = 2 regime check needs ~1.2e9
# points an accelerated piece may visit: each is one entry of an array upper_gamma per
# gamma order (~0.3 us in a large batch); rank 6 at tol 1e-13 needs ~3.4e5
GAMMA_POINT_BUDGET = 1e7
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
    return _tail(frame.geometry, [(alpha, vec, 1.0) for alpha, vec in P.coeffs.items()], s_re)


def kzeta_direct(frame, P, u, s, tol=1e-10):
    """Sum over the ellipsoid Q(l) <= R in the absolute-convergence region.

    R is solved from the integral-comparison tail before summing, within
    the ellipsoid_radius of POINT_BUDGET points.
    """
    s = complex(s)
    if not converges_directly(P, s, frame.rank):
        raise NotAbsolutelyConvergent(
            f"need 2 Re(s) - deg P > {frame.rank}, got s={s}, deg={P.degree}"
        )
    tail = _direct_tail(frame, P, s.real)
    R = solve_radius(tail, tol, frame.geometry, POINT_BUDGET, "direct zeta")
    value = _paired_sum(frame, P, [u], R, lambda q: q ** -s.real if s.imag == 0 else np.exp(-s * np.log(q)))[0]
    return ZetaValue(value=value, s=s, regime="direct", error_bound=float(tail(R)))


def kzeta_accelerated(frame, P, u, s, split_a=1.0, tol=1e-10, threads=None):
    """Analytic continuation by the split-Mellin / incomplete-gamma assembly."""
    # threads is unused: it stays because bench/workloads.py passes threads=1
    s = complex(s)
    A = float(split_a)
    values, bound = _accelerated(frame, P, [u], s, A, tol)
    return ZetaValue(value=values[0], s=s, regime="accelerated", error_bound=bound, split_a=A)


def _accelerated(frame, P, us, s, A, tol):
    """K(s) at each point of us (one row each) and their common error bound."""
    with _double_range(s):
        total, tail = _gamma_k(frame, P, us, s, A, tol / 4)
        rg = rgamma(s)
    return total * rg, float(tail * abs(rg))


def kzeta_gamma_product(frame, P, u, s, split_a=1.0, tol=1e-10):
    """The assembled Gamma(s) * K(s) before dividing by Gamma.

    For u off the zero section every piece is entire in s, which the
    suite checks through a Cauchy-integral reconstruction on a small circle.
    """
    with _double_range(s):
        return _gamma_k(frame, P, [u], complex(s), float(split_a), tol / 2)[0][0]


@contextmanager
def _double_range(s):
    """Report a Gamma factor beyond double range as GammaOverflow, not a traceback.

    The assembly needs Gamma(s) and Gamma(r/2 + m - s); for |Re s| past
    about 171 one of them overflows (math.gamma) or its reciprocal
    underflows to 0 (complex s), and the weights Q^-s overflow with them.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, ZeroDivisionError, FloatingPointError):
        raise GammaOverflow(
            f"accelerated zeta: a Gamma factor at s = {s} is outside double range"
        ) from None


def _gamma_k(frame, P, us, s, A, piece_tol):
    """Gamma(s) K(s) by the split at A at each point u of us.

    Returns (totals, certified tail): one row of totals per point, one tail
    for all.  Each of the two lattice pieces is certified to piece_tol.
    Everything but the characters, the dual points and the w = 0 term is
    independent of u and is computed once for the batch.
    """
    if A <= 0 or piece_tol <= 0:
        raise ValueError("split point and tol must be positive")
    half = frame.rank / 2.0

    p0 = P.value_at_zero()
    if np.any(p0 != 0) and abs(s) < _POLE_TOL:
        raise PoleAtS("boundary term P(0) A^s / s has a pole at s = 0")

    # the direct radius needs only P: an exceeded budget is found before
    # the Gaussian transform is built
    tail_i = _gamma_direct_tail(frame, P, s, A)
    R_i = solve_radius(tail_i, piece_tol, frame.geometry, GAMMA_POINT_BUDGET, "accelerated zeta (direct piece)")

    # the transformed polynomial does not depend on the shift h
    gf = frame.transform(P)
    rhos = {m: half + m - s for m in gf.by_tpower}

    def mellin_at_zero(m):  # the radial factor at Qdual = 0: int_0^A t^(s - r/2 - m - 1) dt
        denom = s - half - m
        if abs(denom) < _POLE_TOL:
            raise ZeroSectionSingularity(f"dual-side constant term diverges at s = {half + m}")
        return A**denom / denom

    tail_ii = _gamma_dual_tail(frame, gf, rhos, A)
    R_ii = solve_radius(tail_ii, piece_tol, frame.dual_geometry, GAMMA_POINT_BUDGET, "accelerated zeta (dual piece)")

    def mellin(m, qd):
        # int_0^A t^(s - r/2 - m - 1) e^(-pi^2 qd / t) dt = Gamma(rho, pi^2 qd / A) / (pi^2 qd)^rho
        rho = rhos[m]
        return upper_gamma(rho, (math.pi**2 / A) * qd) * np.exp(-rho * np.log(math.pi**2 * qd))

    def gamma_weight(q):  # Gamma(s, A Q) / Q^s
        return upper_gamma(s, A * q) * np.exp(-s * np.log(q))

    # the dual piece checks its candidates' budget before it enumerates,
    # so it is summed first: both budgets fail before anything is summed
    sum_ii = _dual_sum(
        frame, gf, us, R_ii, mellin, mellin_at_zero, budget=GAMMA_POINT_BUDGET, what="accelerated zeta (dual piece)"
    )
    sum_i = _paired_sum(frame, P, us, R_i, gamma_weight)

    total = sum_i + gf.disc_factor * sum_ii
    if np.any(p0 != 0):
        total = total - p0 * A**s / s
    return total, tail_i(R_i) + gf.disc_factor * tail_ii(R_ii)


def _gamma_direct_tail(frame, P, s, A):
    """R -> the bound on sum over Q(l) > R of |P(l) Gamma(s, A Q(l)) / Q(l)^s|."""
    # |Gamma(s, x)| <= c x^{Re s - 1} e^{-x} (upper_gamma_bound) once x >= 2 (Re s - 1)
    scale = (1.0 if s.real <= 1 else 2.0) * _power(A, s.real - 1.0)
    return _tail(
        frame.geometry, [(alpha, vec, scale) for alpha, vec in P.coeffs.items()], 1.0,
        decay=A, r_min=2.0 * (s.real - 1.0) / A,
    )


def _power(A, p):
    """A**p, or inf beyond double range: the tail is then infinite, which
    solve_radius reports as an exceeded budget."""
    try:
        return A**p
    except OverflowError:
        return math.inf


def _gamma_dual_tail(frame, gf, rhos, A):
    """R -> the bound on the dual piece beyond Qdual(w) = R (see _dual_sum)."""
    # per monomial, |Gamma(rho, y) / (pi^2 Qd)^rho| <= c A^{1 - Re rho} e^{-y} / (pi^2 Qd)
    # at y = pi^2 Qd / A, once y >= 2 (Re rho - 1)
    max_rho_re = max((rho.real for rho in rhos.values()), default=0.0)
    return _dual_tail(
        frame, gf, lambda m: (1.0 if rhos[m].real <= 1 else 2.0) * _power(A, 1.0 - rhos[m].real) / math.pi**2, 1.0,
        decay=math.pi**2 / A, r_min=2.0 * (max_rho_re - 1.0) * A / math.pi**2,
    )


def kzeta(frame, P, u, s, mode="auto", split_a=1.0, tol=1e-10):
    """Dispatch between the direct and accelerated regimes.

    `auto` picks the direct sum only when its tail certifies tol within the
    ellipsoid_radius of AUTO_DIRECT_POINTS points; otherwise the continuation (which
    agrees wherever both converge) is used.
    """
    if mode == "auto":
        cheap = converges_directly(P, s, frame.rank) and (
            _direct_tail(frame, P, complex(s).real)(ellipsoid_radius(frame.geometry, AUTO_DIRECT_POINTS)) <= tol
        )
        mode = "direct" if cheap else "accel"
    if mode == "direct":
        return kzeta_direct(frame, P, u, s, tol=tol)
    if mode == "accel":
        return kzeta_accelerated(frame, P, u, s, split_a=split_a, tol=tol)
    raise ValueError("mode must be auto, direct or accel")


def torus_distance(frame, u):
    """Distance from u to the zero section (ambient coordinates): the least
    |w| over the dual points w = V (m - c) of u, 0 on the zero section."""
    c = frame.dual_centers([u])
    if integral_rows(c)[0]:
        return 0.0
    V, geom, c = frame.dual_basis, frame.torus_geometry, c[0]
    # round(c) is within cell_radius of c, so that ellipsoid holds the nearest m
    ms = np.vstack([ms for ms, _q in ellipsoid_chunks(geom, geom.cell_radius**2, center=c)])
    return float(np.min(np.linalg.norm((ms - c) @ V.T, axis=1)))


def smoothness_scan(frame, P, s, grid, fd_step=0.01, tol=1e-11):
    """Values and finite-difference gradients of the continued sum on a u-grid.

    Each gradient is computed at steps fd_step, fd_step/2 and fd_step/4;
    the stability ratio |g_h|/|g_{h/2}| should sit near 1 and the
    Richardson ratio |g_h - g_{h/2}| / |g_{h/2} - g_{h/4}| near 4 for a
    second-order-smooth integrand.  Every grid and finite-difference point
    is one batch of the accelerated sum (split at A = 1).
    """
    grid = [np.asarray(u, dtype=float) for u in grid]
    for u in grid:
        if torus_distance(frame, u) < 10 * fd_step:
            raise GridTouchesZeroSection(f"grid point {u.tolist()} too close to the lattice")
    steps = (fd_step, fd_step / 2, fd_step / 4)
    shifts = [step * e for step in steps for e in np.eye(frame.rank)]
    points = [v for u in grid for v in [u] + [w for d in shifts for w in (u + d, u - d)]]
    values = iter(_accelerated(frame, P, points, complex(s), 1.0, tol)[0])
    rows = []
    for u in grid:
        val = next(values)
        grads = []
        for step in steps:
            g = np.zeros((frame.rank, P.target_dim), dtype=complex)
            for j in range(frame.rank):
                g[j] = (next(values) - next(values)) / (2 * step)
            grads.append(g)
        g1, g2, g4 = grads
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
