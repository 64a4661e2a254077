"""Small exact linear algebra over Fraction matrices (lists of lists).

Matrices here are tiny (rank <= 8), so plain Gaussian elimination with
exact rational pivots is both fast enough and certifiable; the rank test,
which also sees the larger psi matrices, eliminates fraction-free on ints.
"""

from fractions import Fraction
import math


def frac_matrix(rows):
    """Coerce a nested sequence into a rectangular Fraction matrix."""
    out = [[as_fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged matrix")
    return out


def as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if x != int(x):
            raise ValueError(f"refusing to coerce non-integral float {x!r} to Fraction")
        return Fraction(int(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Fraction")


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def mat_neg(a):
    return [[-x for x in row] for row in a]


def det(a):
    """Determinant by fraction-free-ish Gaussian elimination (exact)."""
    n = len(a)
    m = [row[:] for row in a]
    sign = Fraction(1)
    d = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        d *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return sign * d


def inverse(a):
    """Exact inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    m = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def rank(a):
    """Exact rank over the rationals by fraction-free (Bareiss) elimination.

    Each row is first scaled by the lcm of its denominators, which keeps
    the rank, so int and Fraction input both run on Python ints.  Every
    update is a 2x2 minor divided by the previous pivot; by Sylvester's
    identity that division is exact (Bareiss, Math. Comp. 22, 1968), so
    the entries stay minors of the input and never turn into fractions.
    """
    m = []
    for row in a:
        den = math.lcm(*(x.denominator for x in row))
        m.append([x.numerator * (den // x.denominator) for x in row])
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top, p = m[r], m[r][col]
        for i in range(r + 1, nrows):
            f = m[i][col]
            m[i] = [(p * x - f * y) // prev for x, y in zip(m[i], top)]
        prev = p
        r += 1
        if r == nrows:
            break
    return r
