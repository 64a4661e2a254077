"""Shared summation machinery: the certified shell-summation driver,
compensated accumulation and tail bounds."""

from concurrent.futures import ThreadPoolExecutor
import math
import os

import numpy as np

from .errors import BudgetExceeded
from .lattice import shell_point_count


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


def certified_sum(partial, tail, tol, dim, *, what, shell_cap, start=0, k_cert=0, threads=None):
    """Sum shells k = start, start+1, ... until a tail bound certifies tol.

    partial(k) is the summed contribution of sup-norm shell k (a vector of
    length dim) and tail(k) a rigorous bound on everything beyond shell k;
    the bound is tested only once k >= k_cert (where it becomes valid).
    Shells are dispatched in batches of the thread count and accumulated
    in fixed shell order.  Returns (value, tail, shells_used), shells_used
    being the first shell index not summed.
    """
    nthreads = thread_count(threads)
    acc = CompensatedSum(dim)
    k = start
    while k <= shell_cap:
        batch = list(range(k, min(k + nthreads, shell_cap + 1)))
        for part in map_shells(partial, batch, nthreads):
            acc.add(part)
        k = batch[-1] + 1
        if k - 1 < k_cert:
            continue
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


def power_tail(k0, *, rank, sigma, s_re, coeff, deg, growth):
    """Closed-form bound for sum_{k > k0} count * poly / (sigma k^2)^{s_re}.

    Uses count(k) <= 2r(2k+1)^{r-1} <= 2r 3^{r-1} k^{r-1} and the integral
    comparison for the resulting k power; requires the exponent to be < -1.
    """
    if k0 < 1:
        raise ValueError("power tail needs k0 >= 1")
    p = rank - 1 + deg - 2.0 * s_re
    if p >= -1.0:
        return math.inf
    front = 2 * rank * 3 ** (rank - 1) * coeff * max(1.0, growth) ** deg * sigma ** (-s_re)
    return front * k0 ** (p + 1) / (-1.0 - p)
