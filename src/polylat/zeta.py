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
from .lattice import SNAP_TOL, cell_radius, ellipsoid_chunks, ellipsoid_radius
from .polygauss import gaussian_ft
from .sums import CompensatedSum, power_tail, solve_radius

POINT_BUDGET = 2e9  # points a direct sum may visit; the rank-2 s = 2 regime check needs ~1.2e9
# points an accelerated piece may visit: each is one entry of an array upper_gamma per
# gamma order (~0.3 us in a large batch); rank 6 at tol 1e-13 needs ~3.4e5
GAMMA_POINT_BUDGET = 1e7
AUTO_DIRECT_POINTS = 129**2  # auto mode sums directly only up to this many points
_CHUNK = 1 << 16  # points per enumerated chunk, and entries per (points u) x (lattice points) array
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


def _tail(gram, q_mat, monomials, s_re, decay=0.0, r_min=0.0):
    """R -> the closed-form bound on sum over Q(m) > R of f(m), Q(x) = x^T gram x.

    f(m) = sum over (alpha, vec, scale) in monomials of scale |vec| |y^alpha|
    Q(m)^{-s_re} e^{-decay Q(m)}, y being the ambient point with
    y^T q_mat y = Q(m); the bound is infinite below r_min.
    """
    # |y|^2 <= Q / lambda_min(q_mat), so |y^alpha| <= (Q / lambda_min)^{|alpha|/2}
    grow = 1.0 / math.sqrt(float(np.linalg.eigvalsh(q_mat)[0]))
    amps = [0.0] * (1 + max((sum(alpha) for alpha, _vec, _scale in monomials), default=0))
    for alpha, vec, scale in monomials:
        amps[sum(alpha)] += scale * float(np.max(np.abs(vec))) * grow ** sum(alpha)
    sqrt_det, D = math.sqrt(np.linalg.det(gram)), cell_radius(gram)
    return lambda R: math.inf if R < r_min else power_tail(
        R, rank=len(gram), sqrt_det=sqrt_det, cell_radius=D, s_re=s_re, amps=amps, decay=decay
    )


def _direct_tail(frame, P, s_re):
    """R -> the closed-form bound on sum over Q(l) > R of |P(l)| Q(l)^{-s_re}."""
    return _tail(frame.gram, frame.q_mat, [(alpha, vec, 1.0) for alpha, vec in P.coeffs.items()], s_re)


def _paired_sum(frame, P, us, R, weight):
    """Row k: sum over 0 < Q(l) <= R of chi_l(u_k) P(l) weight(Q(l)), one
    ellipsoid enumeration for every point u_k of the batch.

    Each pair l, -l is summed once: chi(-l) = conj chi(l), Q(-l) = Q(l)
    and P is evaluated at -l.  The weights and P(+-y) are computed once per
    chunk; the characters per block of points u, chunk x block at most _CHUNK.
    """
    chars = [(frame.reduce_point(u), frame.phase_data(u)) for u in us]
    trivial = not any(np.any(h) for h, _phase in chars)  # every character is 1
    constant = P.degree == 0
    # P(-y) from the table at y: each monomial's sign is (-1)^|alpha|
    minus = P.matrix * (-1.0) ** P.exponents.sum(axis=1)[:, None]
    acc = CompensatedSum(len(us) * (1 if constant else P.target_dim))
    chunk = max(1, _CHUNK // max(1, len(P.matrix)))  # a monomial table has at most _CHUNK entries
    for ms, q in ellipsoid_chunks(frame.gram, R, half=True, coords=not (trivial and constant), chunk=chunk):
        w = weight(q)
        if not constant:
            table = P.monomial_table(frame.points(ms))
        if trivial:
            acc.add(np.tile(w.sum() if constant else (w @ table) @ (P.matrix + minus), len(us)))
            continue
        parts = []
        for block in _blocks(chars, len(q)):
            chi = _characters(frame, ms, block)
            if constant:
                parts.append(w @ chi.real)
            else:
                plus_part = ((w[:, None] * chi).T @ table) @ P.matrix
                parts.append(plus_part + ((w[:, None] * np.conj(chi)).T @ table) @ minus)
        acc.add(np.concatenate(parts, axis=None))
    if constant:
        return 2.0 * acc.value[:, None] * P.value_at_zero()
    return acc.value.reshape(len(us), P.target_dim)


def _blocks(items, per_item):
    """items in consecutive blocks of at most max(1, _CHUNK // per_item)."""
    step = max(1, _CHUNK // max(per_item, 1))
    return [items[k:k + step] for k in range(0, len(items), step)]


def _characters(frame, ms, block):
    """chi_l(u) for the rows l of ms, one column per (h, phase_data) of block.

    Fraction points keep their exact roots of unity; the others share one
    product with the character matrix.
    """
    if all(phase is None for _h, phase in block):
        return frame.char_values(ms, np.array([h for h, _phase in block]).T)
    return np.column_stack(
        [frame.char_values(ms, h) if phase is None else frame.char_values_exact(ms, *phase) for h, phase in block]
    )


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
    R = solve_radius(tail, tol, frame.gram, POINT_BUDGET, "direct zeta")
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

    For u outside the base lattice every piece is entire in s, which the
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
    Everything but the characters, the dual points w = V m + h and the
    zero term is independent of u and is computed once for the batch.
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
    R_i = solve_radius(tail_i, piece_tol, frame.gram, GAMMA_POINT_BUDGET, "accelerated zeta (direct piece)")

    # the transformed polynomial does not depend on the shift h
    gf = gaussian_ft(P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    by_tpow = gf.monomials_by_tpower()
    rhos = {m: half + m - s for m in by_tpow}

    # dual-side zero term, for u in the base lattice: only the
    # constant-in-w monomials contribute at w=0
    on_lattice = np.array([frame.in_base_lattice(u) for u in us])
    zero_term = np.zeros(P.target_dim, dtype=complex)
    if on_lattice.any():
        for m, monos in by_tpow.items():
            c0 = sum((vec for alpha, vec in monos if sum(alpha) == 0), np.zeros(P.target_dim, dtype=complex))
            if np.any(c0 != 0):
                denom = s - half - m
                if abs(denom) < _POLE_TOL:
                    raise ZeroSectionSingularity(
                        f"dual-side constant term diverges at s = {half + m}"
                    )
                zero_term = zero_term + c0 * A**denom / denom

    V = frame.dual_basis
    gram_d = V.T @ gf.dual_form @ V
    tail_ii = _gamma_dual_tail(gram_d, gf, by_tpow, rhos, A)
    # the dual radius, and the dual candidates' radius, meet the point
    # budget before either piece is summed
    R_ii = solve_radius(tail_ii, piece_tol, gram_d, GAMMA_POINT_BUDGET, "accelerated zeta (dual piece)")
    hs = np.array([frame.reduce_point(u) for u in us])
    centers = -np.linalg.solve(V, hs.T).T
    R_c = (math.sqrt(R_ii) + math.sqrt(np.einsum("ij,jk,ik->i", centers, gram_d, centers).max())) ** 2
    if R_c > R_ii and R_c > ellipsoid_radius(gram_d, GAMMA_POINT_BUDGET):
        raise BudgetExceeded(
            f"accelerated zeta (dual piece): candidates within {R_c:.6g} of the origin"
            f" exceed {GAMMA_POINT_BUDGET:.3g} points"
        )

    def gamma_weight(q):  # Gamma(s, A Q) / Q^s
        return upper_gamma(s, A * q) * np.exp(-s * np.log(q))

    sum_i = _paired_sum(frame, P, us, R_i, gamma_weight)
    sum_ii = _dual_sum(gram_d, V, gf, rhos, centers, A, R_ii, R_c)

    total = sum_i + gf.disc_factor * (sum_ii + on_lattice[:, None] * zero_term)
    if np.any(p0 != 0):
        total = total - p0 * A**s / s
    return total, tail_i(R_i) + gf.disc_factor * tail_ii(R_ii)


def _gamma_direct_tail(frame, P, s, A):
    """R -> the bound on sum over Q(l) > R of |P(l) Gamma(s, A Q(l)) / Q(l)^s|."""
    # |Gamma(s, x)| <= c x^{Re s - 1} e^{-x} (upper_gamma_bound) once x >= 2 (Re s - 1)
    scale = (1.0 if s.real <= 1 else 2.0) * _power(A, s.real - 1.0)
    return _tail(
        frame.gram, frame.q_mat, [(alpha, vec, scale) for alpha, vec in P.coeffs.items()], 1.0,
        decay=A, r_min=2.0 * (s.real - 1.0) / A,
    )


def _power(A, p):
    """A**p, or inf beyond double range: the tail is then infinite, which
    solve_radius reports as an exceeded budget."""
    try:
        return A**p
    except OverflowError:
        return math.inf


def _gamma_dual_tail(gram, gf, by_tpow, rhos, A):
    """R -> the bound on the dual piece beyond Qdual(w) = R (see _dual_sum)."""
    # per monomial, |Gamma(rho, y) / (pi^2 Qd)^rho| <= c A^{1 - Re rho} e^{-y} / (pi^2 Qd)
    # at y = pi^2 Qd / A, once y >= 2 (Re rho - 1)
    monomials = [
        (alpha, vec, (1.0 if rhos[m].real <= 1 else 2.0) * _power(A, 1.0 - rhos[m].real) / math.pi**2)
        for m, monos in by_tpow.items()
        for alpha, vec in monos
    ]
    max_rho_re = max((rho.real for rho in rhos.values()), default=0.0)
    return _tail(
        gram, gf.dual_form, monomials, 1.0,
        decay=math.pi**2 / A, r_min=2.0 * (max_rho_re - 1.0) * A / math.pi**2,
    )


def _dual_sum(gram, V, gf, rhos, centers, A, R, R_c):
    """Row k: sum over 0 < Qdual(w) <= R of the term-by-term Mellin integrals
    over (0, A], at the points w = V m + h_k (V the dual basis).

    Those are the m with Q(m - c_k) <= R for Q(x) = x^T gram x and
    c_k = -V^{-1} h_k.  The candidates m are enumerated once, about the
    origin within R_c >= (sqrt(R) + max_k sqrt(Q(c_k)))^2, and each block
    of centers keeps its own; block x candidates x monomials is at most
    _CHUNK.  Per power t^-m, the incomplete gamma runs once over the whole
    block and scales that power's monomial table, summed per point.
    """
    n, dim = len(centers), gf.target_dim
    per_point = max((len(part.matrix) for part in gf.by_tpower.values()), default=1)
    acc = CompensatedSum(n * dim)
    for ms, _q in ellipsoid_chunks(gram, R_c, chunk=max(1, _CHUNK // per_point)):
        parts = []
        for block in _blocks(centers, len(ms) * per_point):
            x = ms[None, :, :] - block[:, None, :]  # m - c, block x candidates x rank
            qd = np.einsum("bij,jk,bik->bi", x, gram, x)
            keep = (qd > SNAP_TOL) & (qd <= R)
            rows = np.nonzero(keep)[0]  # the block row of each kept point, ascending
            present, starts = np.unique(rows, return_index=True)
            ws, qd = x[keep] @ V.T, qd[keep]
            log_pq = np.log(math.pi**2 * qd)
            part = np.zeros((len(block), dim), dtype=complex)
            for m, poly in gf.by_tpower.items():
                rho = rhos[m]
                factor = upper_gamma(rho, (math.pi**2 / A) * qd) * np.exp(-rho * log_pq)
                terms = np.add.reduceat(poly.monomial_table(ws) * factor[:, None], starts, axis=0)
                part[present] += terms @ poly.matrix
            parts.append(part)
        acc.add(np.concatenate(parts, axis=None))
    return acc.value.reshape(n, dim)


def kzeta(frame, P, u, s, mode="auto", split_a=1.0, tol=1e-10):
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
        return kzeta_accelerated(frame, P, u, s, split_a=split_a, tol=tol)
    raise ValueError("mode must be auto, direct or accel")


def torus_distance(frame, u):
    """Distance from u to the base lattice Z^rank (ambient coordinates)."""
    v = frame.reduce_point(u)
    best = math.inf
    for corner in np.ndindex(*(2,) * frame.rank):
        best = min(best, float(np.linalg.norm(v - np.array(corner, dtype=float))))
    return best


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
