"""Shared summation machinery: compensated accumulation and the ellipsoid
sums with their closed-form tails.

The Fincke-Pohst ellipsoid sums `_paired_sum` and `_dual_sum` serve theta
(both sides), zeta and the currents; `_tail` and `power_tail` bound what a
radius leaves out, and `solve_radius` finds the least radius that meets a
tolerance.  Each reads its Gram factors from the
frame's `geometry` (direct side) or `dual_geometry` (dual side).
"""

import math

import numpy as np

from .errors import BudgetExceeded
from .incgamma import upper_gamma_bound
from .lattice import ellipsoid_chunks, ellipsoid_radius, shell_point_count

_CHUNK = 1 << 16  # entries of a chunk's coordinates plus its monomial table, and of a (points u) x (lattice points) array


class CompensatedSum:
    """Neumaier compensated accumulator for complex vectors.

    Chunk partial sums are fed in enumeration order; the compensation is
    applied per component on the real and imaginary parts separately.
    """

    def __init__(self, dim):
        self._parts = [np.zeros(dim), np.zeros(dim), np.zeros(dim), np.zeros(dim)]
        # parts: re sum, re comp, im sum, im comp

    def add(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        for off, val in ((0, x.real), (2, x.imag)):
            s, c = self._parts[off], self._parts[off + 1]
            t = s + val
            big = np.abs(s) >= np.abs(val)
            c += np.where(big, (s - t) + val, (val - t) + s)
            self._parts[off] = t

    @property
    def value(self):
        return (self._parts[0] + self._parts[1]) + 1j * (self._parts[2] + self._parts[3])


# map_shells is unused: it stays because bench/tracing.py wraps it
def map_shells(fn, ks):
    """Apply fn to each shell index, in shell order."""
    return [fn(k) for k in ks]


# _sum_decaying_terms is used only by gaussian_tail, which stays for bench/tracing.py
def _sum_decaying_terms(term, k_start, ratio_cap=0.5, max_k=100000):
    """Upper bound for sum_{k >= k_start} term(k) with superexponential decay.

    Sums terms until three consecutive ratios fall below ratio_cap, then
    covers the remainder geometrically.  term must be eventually
    log-concave decreasing (true for count * poly * exp(-c k^2)).
    """
    total = 0.0
    prev = None
    small_streak = 0
    k = k_start
    while k < max_k:
        cur = term(k)
        total += cur
        if prev is not None and prev > 0:
            if cur <= ratio_cap * prev:
                small_streak += 1
            else:
                small_streak = 0
        if small_streak >= 3 and cur < 1e-3 * total + 1e-300:
            total += cur * ratio_cap / (1.0 - ratio_cap)
            return total
        if cur == 0.0 and prev == 0.0:
            return total
        prev = cur
        k += 1
    return math.inf


# gaussian_tail is unused: it stays because bench/tracing.py wraps it
def gaussian_tail(k0, *, rank, sigma, decay, coeff, deg, growth, rho_shift=0.0, amp_shift=0.0):
    """Bound sum over sup-norm shells k > k0 of count * poly * exp(-decay*Q).

    Per point with ||m||_inf = k the quadratic satisfies
    Q >= sigma * max(0, k - rho_shift)^2 (rho_shift absorbs a lattice
    shift divided by the basis' smallest singular value), while the
    polynomial factor is bounded by coeff * max(1, growth*k + amp_shift)^deg.
    """

    def term(k):
        rho = max(0.0, k - rho_shift)
        amp = coeff * max(1.0, growth * k + amp_shift) ** deg
        expo = decay * sigma * rho * rho
        if expo > 700:
            return 0.0
        return shell_point_count(rank, k) * amp * math.exp(-expo)

    return _sum_decaying_terms(term, k0 + 1)


def power_tail(R, *, rank, sqrt_det, cell_radius, s_re, amps, decay=0.0):
    """Integral-comparison bound for sum over Q(m) > R of f(sqrt(Q(m))).

    f(rho) = sum_k amps[k] rho^(k - 2 s_re) exp(-decay rho^2): amps[k]
    bounds the degree-k part of a polynomial by amps[k] Q(m)^{k/2}.  Q is
    m^T G m over the integer m, or over the m - c of a shifted lattice.  On
    the unit cell around m, sqrt(Q(m)) >= sqrt(Q(x)) - D (D = cell_radius),
    and the cells of the points with Q > R lie in sqrt(Q(x)) > sqrt(R) - D;
    so in ellipsoid-polar coordinates, with tau = sqrt(Q(x)) - D, the tail
    is at most r V_r / sqrt(det G) * int_{tau0}^inf f(tau) (tau + D)^{r-1}
    dtau, tau0 = sqrt(R) - 2D, once f decreases on [tau0, inf).  Expanding
    (tau + D)^{r-1} binomially leaves int_{tau0}^inf tau^{p-1}
    exp(-decay tau^2) dtau per term: tau0^p / -p without decay (finite only
    for p < 0), Gamma(p/2, decay tau0^2) / (2 decay^{p/2}) with it, bounded
    by upper_gamma_bound.  Infinite where the bound does not apply, or
    leaves double range.
    """
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


def solve_radius(tail, tol, geom, points, what):
    """A radius R whose tail(R) <= tol, at most 2^(1/256) times the least one.

    tail must not increase with R.  R is sought between 4 D^2 (below which
    every integral-comparison tail is infinite; D is the cell_radius of the
    Geometry geom) and the ellipsoid_radius of `points` points, by
    bisecting log R; that takes about 15 evaluations of tail.
    BudgetExceeded if even the largest radius does not certify tol.
    """
    hi = ellipsoid_radius(geom, points)
    if not tail(hi) <= tol:
        raise BudgetExceeded(f"{what}: no certified tail <= {tol} within {points:.3g} points")
    lo, hi = math.log(4.0 * geom.cell_radius**2), math.log(hi)
    while hi - lo > math.log(2.0) / 256:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(math.exp(mid)) <= tol else (mid, hi)
    return math.exp(hi)


def _tail(geom, monomials, s_re, decay=0.0, r_min=0.0):
    """R -> the closed-form bound on sum over Q(m) > R of f(m), Q the form of
    the Geometry geom.

    f(m) = sum over (alpha, vec, scale) in monomials of scale |vec| |y^alpha|
    Q(m)^{-s_re} e^{-decay Q(m)}, y being the ambient point of m; the bound
    is infinite below r_min.
    """
    # |y|^2 <= Q / lambda_min, so |y^alpha| <= (Q / lambda_min)^{|alpha|/2}
    grow = 1.0 / math.sqrt(geom.lam_min)
    amps = [0.0] * (1 + max((sum(alpha) for alpha, _vec, _scale in monomials), default=0))
    for alpha, vec, scale in monomials:
        amps[sum(alpha)] += scale * float(np.max(np.abs(vec))) * grow ** sum(alpha)
    return lambda R: math.inf if R < r_min else power_tail(
        R, rank=geom.rank, sqrt_det=geom.sqrt_det, cell_radius=geom.cell_radius, s_re=s_re, amps=amps, decay=decay
    )


def _paired_sum(frame, P, us, R, weight):
    """Row k: sum over 0 < Q(l) <= R of chi_l(u_k) P(l) weight(Q(l)), one
    ellipsoid enumeration for every point u_k of the batch.

    Each pair l, -l is summed once: chi(-l) = conj chi(l), Q(-l) = Q(l)
    and P is evaluated at -l.  The weights and P(+-y) are computed once per
    chunk; the characters per block of points u, chunk x block at most _CHUNK.
    """
    chars = [(frame.reduce_point(u), frame.phase_data(u)) for u in us]
    trivial = frame.on_zero_section(us).all()  # every character is 1
    constant = P.degree == 0
    # P(-y) from the table at y: each monomial's sign is (-1)^|alpha|
    minus = P.matrix * (-1.0) ** P.exponents.sum(axis=1)[:, None]
    acc = CompensatedSum(len(us) * (1 if constant else P.target_dim))
    coords = not (trivial and constant)
    # a chunk's coordinates plus its monomial table hold at most _CHUNK entries
    chunk = max(1, _CHUNK // max(1, len(P.matrix) + (frame.rank if coords else 0)))
    for ms, q in ellipsoid_chunks(frame.geometry, R, half=True, coords=coords, chunk=chunk):
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


def _dual_tail(frame, gf, scale, s_re, decay, r_min=0.0):
    """R -> the bound of _tail on the dual sum beyond Qdual(w) = R, each
    monomial of the power t^-m weighted by scale(m)."""
    monomials = [(alpha, vec, scale(m)) for m, part in gf.by_tpower.items() for alpha, vec in part.coeffs.items()]
    return _tail(frame.dual_geometry, monomials, s_re, decay=decay, r_min=r_min)


def _dual_sum(frame, gf, us, R, radial, radial0, *, budget, what):
    """Row k: sum over Qdual(w) <= R of sum over m of radial(m, Qdual(w))
    gf.by_tpower[m](w), at the dual points w of u_k (see
    SumLattice.dual_centers); gf must be built on frame's q_mat and pairing.

    radial(m, qd) is the radial factor of the power t^-m at an array qd,
    and radial0(m) its closed form at qd = 0 (asked for only where the
    constant monomial of t^-m is not 0).  Each center is reduced mod Z^r,
    c_k - round(c_k), which leaves its dual points unchanged.  For u_k on
    the zero section the center is snapped to its integer point first, so
    it reduces to exactly 0, and the w = 0 term is that constant times
    radial0(m); every other point keeps all its terms.  The candidates m
    are enumerated once, about the mean c of the reduced centers within
    R_c = (sqrt(R) + max_k sqrt(Q(c_k - c)))^2, Q the form of
    frame.dual_geometry, once that ellipsoid is known to hold at most
    `budget` points (a single point enumerates its own ellipsoid, R_c = R);
    each block of centers keeps its own, and block x candidates x
    monomials is at most _CHUNK.
    """
    V, geom = frame.dual_basis, frame.dual_geometry
    zero = frame.on_zero_section(us)
    centers = frame.dual_centers(us)
    centers[zero] = np.round(centers[zero])
    centers -= np.round(centers)
    mean = centers.mean(axis=0)
    n, dim = len(centers), gf.target_dim
    at_zero = 0.0
    if zero.any():
        for m, poly in gf.by_tpower.items():
            c0 = poly.value_at_zero()
            if np.any(c0 != 0):
                at_zero = at_zero + c0 * radial0(m)
    d = centers - mean
    spread = math.sqrt(np.einsum("ij,jk,ik->i", d, geom.gram, d).max())
    R_c = R + spread * (2.0 * math.sqrt(R) + spread)  # (sqrt(R) + spread)^2, exactly R for one point
    if R_c > R and R_c > ellipsoid_radius(geom, budget):
        raise BudgetExceeded(f"{what}: candidates within {R_c:.6g} of the centers' mean exceed {budget:.3g} points")
    per_point = max((len(part.matrix) for part in gf.by_tpower.values()), default=1)
    acc = CompensatedSum(n * dim)
    # a chunk's coordinates plus its monomial tables hold at most _CHUNK entries
    for ms, _q in ellipsoid_chunks(geom, R_c, center=mean, chunk=max(1, _CHUNK // (per_point + frame.rank))):
        parts = []
        for block in _blocks(centers, len(ms) * per_point):
            x = ms[None, :, :] - block[:, None, :]  # m - c, block x candidates x rank
            qd = np.einsum("bij,jk,bik->bi", x, geom.gram, x)
            keep = (qd > 0) & (qd <= R)  # w = 0 only where a snapped center meets its own m
            rows = np.nonzero(keep)[0]  # the block row of each kept point, ascending
            present, starts = np.unique(rows, return_index=True)
            ws, qd = x[keep] @ V.T, qd[keep]
            part = np.zeros((len(block), dim), dtype=complex)
            for m, poly in gf.by_tpower.items():
                terms = np.add.reduceat(poly.monomial_table(ws) * radial(m, qd)[:, None], starts, axis=0)
                part[present] += terms @ poly.matrix
            parts.append(part)
        acc.add(np.concatenate(parts, axis=None))
    value = acc.value.reshape(n, dim)
    value[zero] += at_zero
    return value
