"""Gamma, 1/Gamma, E1 and the upper incomplete gamma, in double precision.

The continuation engine needs Gamma(a, x) at complex a (the Mellin split
produces orders s and r/2 + m - s) and real x > 0, and 1/Gamma(s) to
divide the assembled Gamma(s) K(s).  Double precision is enough for every
tolerance in the verification suite (>= 1e-10), using the standard split
(Gil, Segura & Temme, SIAM J. Sci. Comput. 34, 2012): a regularized
series for small x, a Lentz continued fraction otherwise, and downward
recursion through nonpositive real parts (based at the exponential
integral when a sits on a nonpositive integer).

Gamma itself is math.gamma on the real axis and, off it, a Lanczos sum
(Lanczos, SIAM J. Numer. Anal. B1, 1964) with Godfrey's g = 607/128,
n = 15 coefficients for Re z >= 1/2 and reflection below, through a
sin(pi z) whose argument is reduced exactly so that it vanishes at the
poles.  Both are within 1e-14 relative of mpmath over Re z in [-10, 15],
|Im z| <= 10, including points within 1e-6 of the poles.
"""

import cmath
import math

_MAX_ITER = 600
_EPS = 1e-16
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
    """E1(x) = int_x^inf e^{-t} / t dt for real x > 0."""
    if x > 1.0:
        return _upper_cf(0.0, x).real  # E1(x) = Gamma(0, x)
    # E1(x) = -gamma_E - ln x - sum_{k>=1} (-x)^k / (k k!)
    term, total = 1.0, 0.0
    for k in range(1, _MAX_ITER):
        term *= -x / k
        total -= term / k
        if abs(term) < abs(total) * _EPS:
            break
    return total - _EULER - math.log(x)


def upper_gamma(a, x):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt, complex a, real x > 0."""
    a = complex(a)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        if a.real <= 0:
            raise ValueError("Gamma(a, 0) diverges for Re(a) <= 0")
        return gamma(a)
    if a.real > 0:
        if x < a.real + 1.0:
            return gamma(a) - _lower_series(a, x)
        return _upper_cf(a, x)
    # Re(a) <= 0: the continued fraction is fine away from 0; close to 0
    # recurse down from a region where the series applies.
    if x >= 1.5:
        return _upper_cf(a, x)
    if abs(a.imag) < 1e-14 and abs(a.real - round(a.real)) < 1e-14:
        n = int(round(-a.real))
        val = complex(exp1(x))  # Gamma(0, x)
        cur_a = 0.0
        for _ in range(n):
            cur_a -= 1.0
            val = (val - x**cur_a * math.exp(-x)) / cur_a
        return val
    shift = int(math.ceil(-a.real)) + 1
    val = upper_gamma(a + shift, x)
    log_x = math.log(x)
    for k in range(1, shift + 1):
        ak = a + shift - k
        val = (val - cmath.exp(ak * log_x - x)) / ak
    return val


def _lower_series(a, x):
    """gamma(a, x) by the regularized power series (x < Re(a)+1)."""
    term = 1.0 / a
    total = term
    ak = a
    for _ in range(_MAX_ITER):
        ak += 1
        term *= x / ak
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * cmath.exp(-x + a * math.log(x))


def _upper_cf(a, x):
    """Gamma(a, x) by the Lentz modified continued fraction."""
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return cmath.exp(-x + a * math.log(x)) * h


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
