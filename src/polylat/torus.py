"""Exact exterior calculus on the real torus with character coefficients.

Forms are finite sums of terms  chi_{l'} dx^I (x) w  where l' indexes a
character of the dual lattice, dx^I is an exterior monomial and w a
symmetric word of degree <= N over the lattice basis (the pro-object is
truncated at N; products beyond N are silently dropped).  Coefficients
live in the exact ring Q(i)[iota], iota being a formal symbol for 2*pi*i,
so closedness and flatness are theorems here, not float residuals.
Numeric evaluation substitutes iota = 2*pi*i only at the boundary to the
current engine.
"""

from fractions import Fraction
import math
import random

from . import ratlin
from .errors import TruncationOverflow
from .polarized import PolarizedAbelianData

HARD_SYM_CAP = 12


def _exact(x):
    """An exact rational as a Python int when integral, else as a Fraction."""
    if type(x) is int:
        return x
    x = x if isinstance(x, Fraction) else Fraction(x)
    return x.numerator if x.denominator == 1 else x


class ExactScalar:
    """Element of Q(i)[iota]: map iota_power -> (rational re, rational im).

    Integral parts are kept as Python ints and the others as Fractions;
    since Fraction(n) == n with equal hashes, equality, hashing and repr
    do not see the difference.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {}
        if parts:
            for k, (re, im) in parts.items():
                re, im = _exact(re), _exact(im)
                if re or im:
                    self.parts[int(k)] = (re, im)

    @classmethod
    def from_rational(cls, re, im=0, iota_power=0):
        return cls({iota_power: (re, im)})

    @classmethod
    def one(cls):
        return cls({0: (1, 0)})

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return isinstance(other, ExactScalar) and self.parts == other.parts

    def __hash__(self):
        return hash(tuple(sorted(self.parts.items())))

    def __add__(self, other):
        out = dict(self.parts)
        for k, (re, im) in other.parts.items():
            r0, i0 = out.get(k, (0, 0))
            out[k] = (r0 + re, i0 + im)
        return ExactScalar(out)

    def __neg__(self):
        return ExactScalar({k: (-re, -im) for k, (re, im) in self.parts.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ExactScalar):
            other = ExactScalar.from_rational(other)
        out = {}
        for k1, (a, b) in self.parts.items():
            for k2, (c, d) in other.parts.items():
                k = k1 + k2
                re, im = a * c - b * d, a * d + b * c
                r0, i0 = out.get(k, (0, 0))
                out[k] = (r0 + re, i0 + im)
        return ExactScalar(out)

    def numeric(self):
        """Substitute iota = 2*pi*i."""
        total = 0j
        for k, (re, im) in self.parts.items():
            total += (float(re) + 1j * float(im)) * (2j * math.pi) ** k
        return total

    def __repr__(self):
        if not self.parts:
            return "0"
        bits = []
        for k in sorted(self.parts):
            re, im = self.parts[k]
            coef = f"({re}{'+' if im >= 0 else ''}{im}i)"
            bits.append(coef if k == 0 else f"{coef}*iota^{k}")
        return " + ".join(bits)


def _coerce_scalar(x):
    if isinstance(x, ExactScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactScalar.from_rational(x)
    if isinstance(x, tuple) and len(x) == 2:
        return ExactScalar.from_rational(x[0], x[1])
    raise TypeError(f"cannot coerce {x!r} into the exact coefficient ring")


def _wedge_tuples(e1, e2):
    """dx^e1 ^ dx^e2 as (sorted indices, reordering sign); (None, 0) if an index repeats."""
    if set(e1) & set(e2):
        return None, 0
    merged = e1 + e2
    # count inversions of the concatenation to sort it
    inv = 0
    arr = list(merged)
    for i in range(len(arr)):
        for j in range(i + 1, len(arr)):
            if arr[i] > arr[j]:
                inv += 1
    return tuple(sorted(merged)), (-1) ** inv


class FourierForm:
    """Finite character-coefficient form with truncated symmetric values."""

    def __init__(self, data, trunc, terms=None):
        if trunc < 0 or trunc > HARD_SYM_CAP:
            raise TruncationOverflow(f"symmetric truncation {trunc} outside [0, {HARD_SYM_CAP}]")
        self.data = data
        self.n = data.rank
        self.trunc = int(trunc)
        self.terms = {}
        if terms:
            for key, coef in terms.items():
                self._accumulate(key, coef)

    def _accumulate(self, key, coef):
        char, ext, word = key
        if len(ext) > self.n or len(word) > self.trunc:
            return
        coef = _coerce_scalar(coef)
        if not coef:
            return
        cur = self.terms.get(key)
        new = coef if cur is None else cur + coef
        if new:
            self.terms[key] = new
        elif cur is not None:
            del self.terms[key]

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, data, trunc):
        return cls(data, trunc)

    @classmethod
    def unit(cls, data, trunc):
        """The constant function 1 in Sym^0."""
        char0 = (Fraction(0),) * data.rank
        return cls(data, trunc, {(char0, (), ()): ExactScalar.one()})

    @classmethod
    def character(cls, data, trunc, lam_dual):
        char = tuple(ratlin.as_fraction(x) for x in lam_dual)
        return cls(data, trunc, {(char, (), ()): ExactScalar.one()})

    def copy_with(self, terms):
        return FourierForm(self.data, self.trunc, terms)

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        out = FourierForm(self.data, self.trunc, self.terms)
        for key, coef in other.terms.items():
            out._accumulate(key, coef)
        return out

    def __neg__(self):
        return self.copy_with({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, x):
        x = _coerce_scalar(x)
        return self.copy_with({k: c * x for k, c in self.terms.items()})

    def wedge(self, other):
        """Exterior product; characters add, symmetric words multiply (truncated)."""
        out = FourierForm(self.data, self.trunc)
        for (c1, e1, w1), a1 in self.terms.items():
            for (c2, e2, w2), a2 in other.terms.items():
                ext, sign = _wedge_tuples(e1, e2)
                if ext is None:
                    continue
                word = tuple(sorted(w1 + w2))
                if len(word) > self.trunc:
                    continue  # pro-object truncation
                char = tuple(x + y for x, y in zip(c1, c2))
                out._accumulate((char, ext, word), a1 * a2 * sign)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return self.terms == other.terms

    def numeric_terms(self):
        """Substitute iota = 2*pi*i; returns {(char, ext, word): complex}."""
        return {k: c.numeric() for k, c in self.terms.items()}


# ---------------------------------------------------------------------------
# operations


def exterior_d(f):
    """d(chi dx^I w) = chi * iota * sum_i E(l', e_i) dx^i ^ dx^I (x) w."""
    out = FourierForm(f.data, f.trunc)
    # E(l', e_i) = sum_j l'_j E[j][i]: the nonzero integers of column i of E
    et = [[(j, e) for j, e in enumerate(col) if e] for col in zip(*f.data.E)]
    for (char, ext, word), coef in f.terms.items():
        if all(x == 0 for x in char):
            continue
        for i, col in enumerate(et):
            new_ext, sign = _wedge_tuples((i,), ext)
            if new_ext is None:
                continue
            p = sum(e * char[j] for j, e in col)
            if p == 0:
                continue
            out._accumulate(
                (char, new_ext, word), coef * ExactScalar.from_rational(sign * p, 0, 1)
            )
    return out


def nu_form(data, trunc):
    """nu = sum_i dx^i (x) e_i: the tautological vertical-projection 1-form."""
    if trunc < 1:
        raise TruncationOverflow("nu needs symmetric truncation >= 1")
    char0 = (Fraction(0),) * data.rank
    terms = {(char0, (i,), (i,)): ExactScalar.one() for i in range(data.rank)}
    return FourierForm(data, trunc, terms)


def log_connection(f):
    """nabla f = d f + (-1)^p (dx^I ^ dx^i) (x) (e_i . w): the logarithm connection.

    Multiplying nu's value slot into the symmetric word raises the degree
    by one; words beyond the truncation level are dropped (pro-object
    semantics).
    """
    if f.trunc < 1:
        raise TruncationOverflow("connection needs symmetric truncation >= 1")
    out = exterior_d(f)
    for (char, ext, word), coef in f.terms.items():
        # (-1)^p omega ^ dx^i = wsign * dx^{I u i}: the Leibniz sign cancels
        # against the wedge reordering sign.
        for i in range(f.data.rank):
            new_ext, wsign = _wedge_tuples((i,), ext)
            if new_ext is None:
                continue
            new_word = tuple(sorted(word + (i,)))
            if len(new_word) > f.trunc:
                continue
            out._accumulate((char, new_ext, new_word), coef * wsign)
    return out


def contract(f, v):
    """Interior product against a constant vector field with exact components."""
    comps = [_coerce_scalar(x) for x in v]
    out = FourierForm(f.data, f.trunc)
    for (char, ext, word), coef in f.terms.items():
        for pos, idx in enumerate(ext):
            if not comps[idx]:
                continue
            new_ext = ext[:pos] + ext[pos + 1 :]
            out._accumulate((char, new_ext, word), coef * comps[idx] * ((-1) ** pos))
    return out


def polarization_form(data, trunc=0):
    """The 2-form Omega/2 with Omega(v, w) = <v, w> = iota * E(v, w)."""
    terms = {}
    char0 = (Fraction(0),) * data.rank
    for i in range(data.rank):
        for j in range(i + 1, data.rank):
            if data.E[i][j]:
                terms[(char0, (i, j), ())] = ExactScalar.from_rational(
                    Fraction(data.E[i][j], 2), 0, 1
                )
    return FourierForm(data, trunc, terms)


def omega_power(data, k, trunc=0):
    """k-th exterior power of the polarization form (0 beyond top degree)."""
    out = FourierForm.unit(data, trunc)
    om = polarization_form(data, trunc)
    for _ in range(k):
        out = out.wedge(om)
    return out


def hodge_projectors_exact(data):
    """The (-1,0) and (0,-1) projector matrices over Q(i), as ExactScalar."""
    n = data.rank
    minus = [
        [
            ExactScalar.from_rational(
                Fraction(1, 2) if p == q else Fraction(0), -Fraction(data.J[p][q]) / 2
            )
            for q in range(n)
        ]
        for p in range(n)
    ]
    plus = [
        [
            ExactScalar.from_rational(
                Fraction(1, 2) if p == q else Fraction(0), Fraction(data.J[p][q]) / 2
            )
            for q in range(n)
        ]
        for p in range(n)
    ]
    return minus, plus


def double_contraction_forms(data):
    """i_{e_p} i_{e_q} omega^d for all basis pairs (p, q), exact.

    The engine combines these bilinearly into i_{v} i_{w} omega^d for
    Hodge-projected vectors, so the lattice-sum numerators only ever see
    quadratic coefficients assembled from this table.
    """
    om_d = omega_power(data, data.d, trunc=0)
    table = {}
    n = data.rank
    for q in range(n):
        eq = [ExactScalar.from_rational(int(i == q)) for i in range(n)]
        inner = contract(om_d, eq)
        for p in range(n):
            ep = [ExactScalar.from_rational(int(i == p)) for i in range(n)]
            table[(p, q)] = contract(inner, ep)
    return table


# ---------------------------------------------------------------------------
# flatness


def random_form(rng, data, trunc, nterms=5):
    f = FourierForm(data, trunc)
    n = data.rank
    for _ in range(nterms):
        char = tuple(Fraction(rng.randrange(-2, 3)) for _ in range(n))
        ext = tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
        word = tuple(sorted(rng.choices(range(n), k=rng.randrange(0, trunc))))
        coef = ExactScalar.from_rational(
            Fraction(rng.randrange(-3, 4), rng.randrange(1, 5)),
            Fraction(rng.randrange(-2, 3)),
            rng.randrange(0, 2),
        )
        f._accumulate((char, ext, word), coef)
    return f


def flatness_holds(n_forms=200, seed=6):
    """d d f = 0 and nabla nabla f = 0 for n_forms seeded random forms
    (alternately over tau = i and a rank-4 product), and d nu = 0."""
    rng = random.Random(seed)
    data1 = PolarizedAbelianData.from_tau(0, 1)
    data2 = PolarizedAbelianData.product(
        PolarizedAbelianData.from_tau(0, 1),
        PolarizedAbelianData.from_tau(Fraction(1, 2), Fraction(3, 2)),
    )
    ok = True
    for i in range(n_forms):
        data = data1 if i % 2 == 0 else data2
        trunc = rng.randrange(1, 5)
        f = random_form(rng, data, trunc)
        ok &= exterior_d(exterior_d(f)).is_zero()
        ok &= log_connection(log_connection(f)).is_zero()
    for data in (data1, data2):
        ok &= exterior_d(nu_form(data, 4)).is_zero()
    return bool(ok)
