"""Small exact linear algebra over Fraction matrices (lists of lists).

Matrices here are tiny (rank <= 8), so plain Gaussian elimination with
exact rational pivots is both fast enough and certifiable.  The rank
test, which also sees the larger psi matrices, runs on Python ints: an
elimination mod the prime 2^61 - 1 certifies a full rank at once, and any
lower rank mod p is recomputed exactly over Q by fraction-free (Bareiss)
elimination.  `exact` is the form of the rationals of `symalg` and
`torus`: a Python int when integral, a Fraction otherwise.
"""

from fractions import Fraction
import math

# a Mersenne prime: the modulus of the rank certificate
RANK_PRIME = 2**61 - 1


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


def exact(x):
    """An exact rational as a Python int when integral, else as a Fraction.

    Fraction(n) == n with equal hashes, so dicts, equality and repr do not
    see the difference; int arithmetic and hashing are much cheaper.
    """
    if type(x) is int:
        return x
    x = as_fraction(x)
    return x.numerator if x.denominator == 1 else x


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
    """Exact rank over the rationals of an int or Fraction matrix.

    Each row is first scaled by the lcm of its denominators, which keeps
    the rank, so the work runs on Python ints.  The rank mod p = 2^61 - 1
    is a lower bound of the rank over Q: a minor that is nonzero mod p is
    a nonzero integer.  So a full rank mod p is the rank, and is returned
    at once; any lower rank mod p (the prime may divide every maximal
    minor) falls back to the exact Bareiss elimination.
    """
    m = []
    for row in a:
        if any(type(x) is not int for x in row):
            den = math.lcm(*(x.denominator for x in row))
            row = [x.numerator * (den // x.denominator) for x in row]
        m.append(row)
    if not m:
        return 0
    r = _rank_mod_p(m)
    return r if r == min(len(m), len(m[0])) else _bareiss_rank(m)


def _rank_mod_p(m):
    """Rank of the int matrix m over the field Z / RANK_PRIME, by Gaussian
    elimination on the columns right of each pivot."""
    p = RANK_PRIME
    rows = [[x % p for x in row] for row in m]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        top = [x * inv % p for x in rows[r][col + 1 :]]
        for i in range(r + 1, nrows):
            f = rows[i][col]
            if f:
                rows[i][col + 1 :] = [(x - f * y) % p for x, y in zip(rows[i][col + 1 :], top)]
        r += 1
        if r == nrows:
            break
    return r


def _bareiss_rank(m):
    """Exact rank of the int matrix m by fraction-free (Bareiss) elimination.

    Every update is a 2x2 minor divided by the previous pivot; by
    Sylvester's identity that division is exact (Bareiss, Math. Comp. 22,
    1968), so the entries stay minors of the input and never turn into
    fractions.  The rows of m are replaced, never changed.
    """
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
