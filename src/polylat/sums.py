"""Shared summation machinery: compensated accumulation, the ellipsoid
sums with their closed-form tails, and the box-shell driver.

The Fincke-Pohst ellipsoid sums `_paired_sum` and `_dual_sum` serve zeta,
the currents and `theta.poisson_check`; `_tail` and `power_tail` bound
what a radius leaves out.  The sup-norm box shells of `certified_sum` and
`gaussian_tail` serve only `theta_direct` and `theta_transformed`.
"""

import math

import numpy as np

from .errors import BudgetExceeded
from .incgamma import upper_gamma_bound
from .lattice import cell_radius, ellipsoid_chunks, ellipsoid_radius, shell_point_count

_CHUNK = 1 << 16  # points per enumerated chunk, and entries per (points u) x (lattice points) array


class CompensatedSum:
    """Neumaier compensated accumulator for complex vectors.

    Shell partial sums are fed in fixed shell order; the compensation is
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


def map_shells(fn, ks):
    """Apply fn to each shell index, in shell order."""
    return [fn(k) for k in ks]


def certified_sum(partial, tail, tol, dim, *, what, shell_cap):
    """Sum shells k = 0, 1, ... until a tail bound certifies tol.

    partial(k) is the summed contribution of sup-norm shell k (a vector of
    length dim) and tail(k) a rigorous bound on everything beyond shell k.
    Shells are accumulated in shell order.  Returns (value, tail,
    shells_used), shells_used being the first shell index not summed.
    """
    acc = CompensatedSum(dim)
    for k in range(shell_cap + 1):
        acc.add(map_shells(partial, [k])[0])
        bound = tail(k)
        if bound <= tol:
            return acc.value, float(bound), k + 1
    raise BudgetExceeded(f"{what}: no certified tail <= {tol} within {shell_cap} shells")


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


def solve_radius(tail, tol, gram, points, what):
    """A radius R whose tail(R) <= tol, at most 2^(1/256) times the least one.

    tail must not increase with R.  R is sought between 4 D^2 (below which
    every integral-comparison tail is infinite) and the ellipsoid_radius of
    `points` points, by bisecting log R; that takes about 15 evaluations of
    tail.  BudgetExceeded if even the largest radius does not certify tol.
    """
    hi = ellipsoid_radius(gram, points)
    if not tail(hi) <= tol:
        raise BudgetExceeded(f"{what}: no certified tail <= {tol} within {points:.3g} points")
    lo, hi = math.log(4.0 * cell_radius(gram) ** 2), math.log(hi)
    while hi - lo > math.log(2.0) / 256:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if tail(math.exp(mid)) <= tol else (mid, hi)
    return math.exp(hi)


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


def _dual_gram(frame, gf):
    """G with Qdual(V x) = x^T G x, V the dual basis of frame."""
    V = frame.dual_basis
    return V.T @ gf.dual_form @ V


def _dual_tail(frame, gf, scale, s_re, decay, r_min=0.0):
    """R -> the bound of _tail on the dual sum beyond Qdual(w) = R, each
    monomial of the power t^-m weighted by scale(m)."""
    monomials = [(alpha, vec, scale(m)) for m, part in gf.by_tpower.items() for alpha, vec in part.coeffs.items()]
    return _tail(_dual_gram(frame, gf), gf.dual_form, monomials, s_re, decay=decay, r_min=r_min)


def _dual_sum(frame, gf, us, R, radial, radial0, *, budget, what):
    """Row k: sum over Qdual(w) <= R of sum over m of radial(m, Qdual(w))
    gf.by_tpower[m](w), at the dual points w = V (m - c_k) of u_k (see
    SumLattice.dual_centers).

    radial(m, qd) is the radial factor of the power t^-m at an array qd,
    and radial0(m) its closed form at qd = 0 (asked for only where the
    constant monomial of t^-m is not 0).  For u_k on the zero section the
    center is snapped to its integer point and the w = 0 term is that
    constant times radial0(m); every other point keeps all its terms.  The
    candidates m are enumerated once, about the origin within
    R_c >= (sqrt(R) + max_k sqrt(Q(c_k)))^2, once that ellipsoid is known to
    hold at most `budget` points; each block of centers keeps its own, and
    block x candidates x monomials is at most _CHUNK.
    """
    V, gram = frame.dual_basis, _dual_gram(frame, gf)
    zero = frame.on_zero_section(us)
    centers = frame.dual_centers(us)
    centers[zero] = np.round(centers[zero])
    n, dim = len(centers), gf.target_dim
    at_zero = 0.0
    if zero.any():
        for m, poly in gf.by_tpower.items():
            c0 = poly.value_at_zero()
            if np.any(c0 != 0):
                at_zero = at_zero + c0 * radial0(m)
    R_c = (math.sqrt(R) + math.sqrt(np.einsum("ij,jk,ik->i", centers, gram, centers).max())) ** 2
    if R_c > R and R_c > ellipsoid_radius(gram, budget):
        raise BudgetExceeded(f"{what}: candidates within {R_c:.6g} of the origin exceed {budget:.3g} points")
    per_point = max((len(part.matrix) for part in gf.by_tpower.values()), default=1)
    acc = CompensatedSum(n * dim)
    for ms, _q in ellipsoid_chunks(gram, R_c, chunk=max(1, _CHUNK // per_point)):
        parts = []
        for block in _blocks(centers, len(ms) * per_point):
            x = ms[None, :, :] - block[:, None, :]  # m - c, block x candidates x rank
            qd = np.einsum("bij,jk,bik->bi", x, gram, x)
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
