"""Gamma, 1/Gamma, E1 and the upper incomplete gamma, in double precision.

The continuation engine needs Gamma(a, x) at complex a (the Mellin split
produces orders s and r/2 + m - s) and real x > 0, and 1/Gamma(s) to
divide the assembled Gamma(s) K(s).  Double precision is enough for every
tolerance in the verification suite (>= 1e-10), using the standard split
(Gil, Segura & Temme, SIAM J. Sci. Comput. 34, 2012): a regularized
series for small x, a Lentz continued fraction otherwise, and downward
recursion through nonpositive real parts (based at the exponential
integral when a sits on a nonpositive integer).  upper_gamma and exp1 take
x as a float or as a numpy array: the lattice sums make one call per order
over all of their points.

Gamma itself is math.gamma on the real axis and, off it, a Lanczos sum
(Lanczos, SIAM J. Numer. Anal. B1, 1964) with Godfrey's g = 607/128,
n = 15 coefficients for Re z >= 1/2 and reflection below, through a
sin(pi z) whose argument is reduced exactly so that it vanishes at the
poles.  Both are within 1e-14 relative of mpmath over Re z in [-10, 15],
|Im z| <= 10, including points within 1e-6 of the poles.
"""

import cmath
import math

import numpy as np

_MAX_ITER = 600
_EPS = 1e-16
# the array loops check convergence every _CHECK iterations (the iterations
# past convergence change an entry by rounding only) and finish the last
# _FEW entries one at a time: an array iteration costs about as much as
# 16 scalar ones on arrays this small
_CHECK = 4
_FEW = 16
_EULER = 0.5772156649015329
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LANCZOS_G = 607 / 128
_LANCZOS = (
    0.99999999999999709182, 57.156235665862923517, -59.597960355475491248,
    14.136097974741747174, -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4, 0.15808870322491248884e-3,
    -0.21026444172410488319e-3, 0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4, 0.36899182659531622704e-5,
)


def gamma(z):
    """Gamma(z) for complex z; ValueError at the poles z = 0, -1, -2, ..."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(math.gamma(z.real))
    return 1.0 / rgamma(z)


def rgamma(z):
    """1/Gamma(z), an entire function: exactly 0 at z = 0, -1, -2, ..."""
    z = complex(z)
    if z.real < 0.5:
        # reflection 1/Gamma(z) = sin(pi z) Gamma(1 - z) / pi, with z - n exact
        n = round(z.real)
        return (-1) ** n * cmath.sin(math.pi * complex(z.real - n, z.imag)) * gamma(1 - z) / math.pi
    if z.imag == 0.0:
        return complex(1.0 / math.gamma(z.real))
    return cmath.exp(-_log_gamma(z))


def _log_gamma(z):
    """A logarithm of Gamma(z) for Re z >= 1/2 by the Lanczos sum."""
    z -= 1.0
    t = z + _LANCZOS_G + 0.5
    series = _LANCZOS[0]
    for k in range(len(_LANCZOS) - 1, 0, -1):
        series += _LANCZOS[k] / (z + k)
    return _HALF_LOG_2PI + (z + 0.5) * cmath.log(t) - t + cmath.log(series)


def exp1(x):
    """E1(x) = int_x^inf e^{-t} / t dt for real x > 0, a float or an array."""
    xs = np.asarray(x, dtype=float)
    out = _exp1(xs.ravel())
    return float(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _exp1(x):
    out = np.empty(x.shape)
    # the continued fraction from 1.5 on: just above 1 it takes ~100
    # iterations, the series ~25 (its cancellation costs < 3e-15 at 1.5)
    big = x > 1.5
    if big.any():
        out[big] = _upper_cf(0.0, x[big]).real  # E1(x) = Gamma(0, x)
    small = ~big
    if small.any():
        # E1(x) = -gamma_E - ln x - sum_{k>=1} (-x)^k / (k k!)
        def step(k, state):
            total, term, x = state
            term = term * (-x / k)
            return (total - term / k, term, x), term, total

        x = x[small]
        total = _converge(step, (np.zeros(x.shape), np.ones(x.shape), x), float)
        out[small] = total - _EULER - np.log(x)
    return out


def upper_gamma(a, x):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt, complex a, real x >= 0.

    x is a float or an array (one order over many points); the result is
    complex, shaped like x.  Each regime takes its entries by mask, and the
    series and the continued fraction iterate over the whole array at once
    (see _converge).
    """
    a = complex(a)
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0):
        raise ValueError("x must be nonnegative")
    out = _upper_gamma(a, xs.ravel())
    return complex(out[0]) if xs.ndim == 0 else out.reshape(xs.shape)


def _upper_gamma(a, x):
    ar = a.real if a.imag == 0.0 else a  # real arithmetic for a real order
    # Re(a) > 0: the series below Re(a) + 1.  Re(a) <= 0: the continued
    # fraction is fine away from 0; close to 0 recurse down from a region
    # where the series applies.
    cf = x >= (a.real + 1.0 if a.real > 0 else 1.5)
    if cf.all():
        return _upper_cf(ar, x)
    out = np.empty(x.shape, dtype=complex)
    zero = x == 0.0
    if zero.any():
        if a.real <= 0:
            raise ValueError("Gamma(a, 0) diverges for Re(a) <= 0")
        out[zero] = gamma(a)
    if cf.any():
        out[cf] = _upper_cf(ar, x[cf])
    low = ~(cf | zero)
    if not low.any():
        return out
    x = x[low]
    if a.real > 0:
        out[low] = gamma(a) - _lower_series(ar, x)
    elif abs(a.imag) < 1e-14 and abs(a.real - round(a.real)) < 1e-14:
        val = _exp1(x)  # Gamma(0, x)
        cur_a = 0.0
        for _ in range(int(round(-a.real))):
            cur_a -= 1.0
            val = (val - x**cur_a * np.exp(-x)) / cur_a
        out[low] = val
    else:
        shift = int(math.ceil(-a.real)) + 1
        val = _upper_gamma(a + shift, x)
        log_x = np.log(x)
        for k in range(1, shift + 1):
            ak = ar + shift - k
            val = (val - np.exp(ak * log_x - x)) / ak
        out[low] = val
    return out


def _converge(step, state, dtype):
    """Iterate state = step(i, state), i = 1, 2, ..., until every entry converges.

    state is a tuple of equally long arrays whose first is the result;
    step returns (state, small, big), and an entry has converged once
    |small| < |big| _EPS.  While more than _FEW entries remain they advance
    together, checked every _CHECK iterations, and the converged ones are
    dropped; the last few go on one at a time in Python scalars.  step
    must work on both.
    """
    out, idx = np.empty(len(state[0]), dtype=dtype), np.arange(len(state[0]))
    i = 1
    while len(idx) > _FEW and i < _MAX_ITER:
        state, small, big = step(i, state)
        if i % _CHECK == 0:
            done = np.abs(small) < np.abs(big) * _EPS
            if done.any():
                out[idx[done]] = state[0][done]
                keep = ~done
                idx, state = idx[keep], tuple(arr[keep] for arr in state)
        i += 1
    for j, one in zip(idx, zip(*(arr.tolist() for arr in state))):
        for n in range(i, _MAX_ITER):
            one, small, big = step(n, one)
            if abs(small) < abs(big) * _EPS:
                break
        out[j] = one[0]
    return out


def _lower_series(a, x):
    """gamma(a, x) by the regularized power series (x < Re(a)+1), over an array x."""

    def step(i, state):
        total, term, x = state
        term = term * (x / (a + i))
        return (total + term, term, x), term, total

    first = np.full(x.shape, 1.0 / a)
    return _converge(step, (first, first, x), complex) * np.exp(-x + a * np.log(x))


def _upper_cf(a, x):
    """Gamma(a, x) by the Lentz modified continued fraction, over an array x.

    The first denominator b = x + 1 - a has real part >= 2 where this is
    used (x >= Re(a) + 1, or Re(a) <= 0 < x), and the later ones need no
    guard against vanishing: over Re a in [-10, 12], |Im a| <= 10 and the x
    of these regimes, |a_n d + b_n| and |c| stay above |b_n| / 2.
    """

    def step(i, state):
        h, b, c, d = state
        an = -i * (i - a)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        return (h * delta, b, c, d), delta - 1.0, 1.0

    b = x + (1.0 - a)
    d = 1.0 / b
    h = _converge(step, (d, b, np.full(x.shape, 1e300, dtype=b.dtype), d), complex)  # c starts at 1 / tiny
    return h * np.exp(-x + a * np.log(x))


def upper_gamma_bound(p, x):
    """Rigorous bound for |Gamma(a, x)| with p = Re(a), valid for x > 0.

    |Gamma(a,x)| <= Gamma(p, x); for p <= 1 that is at most x^{p-1}e^{-x},
    and for p > 1, x >= 2(p-1) the integrand is dominated by
    x^{p-1}e^{-x}e^{-(t-x)/2}, giving the factor 2.  Outside the validity
    region the bound falls back to a crude but safe Gamma(p) + x^{p-1}e^{-x}.
    """
    if x <= 0:
        raise ValueError("x must be positive")
    if p <= 1.0:
        return x ** (p - 1.0) * math.exp(-x)
    if x >= 2.0 * (p - 1.0):
        return 2.0 * x ** (p - 1.0) * math.exp(-x)
    return math.gamma(p) + x ** (p - 1.0) * math.exp(-x)
