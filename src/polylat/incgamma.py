"""Upper incomplete gamma for complex order and positive real argument.

The continuation engine needs Gamma(a, x) at complex a (the Mellin split
produces orders s and r/2 + m - s) and real x > 0.  Double precision is
enough for every tolerance in the verification suite (>= 1e-10), using
the standard split: a regularized series for small x, a Lentz continued
fraction otherwise, and downward recursion through nonpositive real
parts (based at the exponential integral when a sits on a nonpositive
integer).
"""

import cmath
import math

from scipy import special

_MAX_ITER = 600
_EPS = 1e-16


def upper_gamma(a, x):
    """Gamma(a, x) = int_x^inf t^{a-1} e^{-t} dt, complex a, real x > 0."""
    a = complex(a)
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0.0:
        if a.real <= 0:
            raise ValueError("Gamma(a, 0) diverges for Re(a) <= 0")
        return _gamma(a)
    if a.real > 0:
        if x < a.real + 1.0:
            return _gamma(a) - _lower_series(a, x)
        return _upper_cf(a, x)
    # Re(a) <= 0: the continued fraction is fine away from 0; close to 0
    # recurse down from a region where the series applies.
    if x >= 1.5:
        return _upper_cf(a, x)
    if abs(a.imag) < 1e-14 and abs(a.real - round(a.real)) < 1e-14:
        n = int(round(-a.real))
        val = complex(special.exp1(x))  # Gamma(0, x)
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


def _gamma(a):
    if a.imag == 0.0 and a.real == int(a.real) and a.real <= 0:
        raise ValueError("Gamma pole at nonpositive integer")
    return complex(special.gamma(a))


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
    return float(special.gamma(p)) + x ** (p - 1.0) * math.exp(-x)
