"""Shared summation machinery: the certified shell-summation driver,
compensated accumulation and tail bounds."""

from concurrent.futures import ThreadPoolExecutor
import math
import os

import numpy as np

from .errors import BudgetExceeded
from .incgamma import upper_gamma_bound
from .lattice import cell_radius, ellipsoid_radius, shell_point_count


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


def thread_count(requested=None):
    if requested is not None and requested >= 1:
        return int(requested)
    env = os.environ.get("POLYLAT_THREADS", "")
    if env.isdigit() and int(env) >= 1:
        return int(env)
    return 1


def map_shells(fn, ks, threads=1):
    """Apply fn to each shell index, preserving shell order in the output."""
    if threads <= 1:
        return [fn(k) for k in ks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, ks))


def certified_sum(partial, tail, tol, dim, *, what, shell_cap, threads=None):
    """Sum shells k = 0, 1, ... until a tail bound certifies tol.

    partial(k) is the summed contribution of sup-norm shell k (a vector of
    length dim) and tail(k) a rigorous bound on everything beyond shell k.
    Shells are dispatched in batches of the thread count and accumulated
    in fixed shell order.  Returns (value, tail, shells_used), shells_used
    being the first shell index not summed.
    """
    nthreads = thread_count(threads)
    acc = CompensatedSum(dim)
    k = 0
    while k <= shell_cap:
        batch = list(range(k, min(k + nthreads, shell_cap + 1)))
        for part in map_shells(partial, batch, nthreads):
            acc.add(part)
        k = batch[-1] + 1
        bound = tail(k - 1)
        if bound <= tol:
            return acc.value, float(bound), k
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
