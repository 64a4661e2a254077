"""Exact rational verification of the group-algebra / symmetric-power ladder.

Everything here is a theorem, so everything is exact: no floats
anywhere.  Rationals are Python ints where integral and Fractions
otherwise (`ratlin.exact`), and the rank behind the bijectivity of psi
is certified mod a prime with an exact fallback (`ratlin.rank`).  The
pieces: truncated group algebras Q[Z^m]/a^n with a the augmentation
ideal, the diagonal-power map psi on group elements, the bar-complex
cocycle gamma = delta(1), the contraction c_n(chi), and the corrected
trivialization ladder theta_n = psi_n o alpha_n with alpha_n^k =
n!/(n-k)!.
"""

from fractions import Fraction
import itertools
import math

from . import ratlin
from .errors import DimensionOverflow

DIM_CAP = 4000


class GroupAlgElem:
    """Element of Q[Z^m]/a^n stored on monomials in Y_i = X_i - 1, deg < n.

    Coefficients are exact rationals in the form of `ratlin.exact`: ints
    where integral, Fractions otherwise.
    """

    def __init__(self, m, n, coeffs=None):
        self.m = int(m)
        self.n = int(n)  # truncation modulus: degrees <= n-1 survive
        out = {}
        for alpha, c in (coeffs or {}).items():
            alpha = tuple(int(a) for a in alpha)
            if sum(alpha) < self.n and c:
                out[alpha] = out.get(alpha, 0) + ratlin.exact(c)
        self.coeffs = _nonzero(out)

    def _like(self, coeffs):
        """An element of this algebra on truncated int and Fraction
        coefficients: their zeros are dropped, integral Fractions made ints."""
        out = object.__new__(GroupAlgElem)
        out.m, out.n, out.coeffs = self.m, self.n, _nonzero(coeffs)
        return out

    @classmethod
    def one(cls, m, n):
        return cls(m, n, {(0,) * m: 1})

    @classmethod
    def generator(cls, m, n, i):
        """Y_i = X_i - 1."""
        alpha = [0] * m
        alpha[i] = 1
        return cls(m, n, {tuple(alpha): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for a, c in other.coeffs.items():
            out[a] = out.get(a, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = ratlin.exact(c)
        return self._like({a: v * c for a, v in self.coeffs.items()})

    def __mul__(self, other):
        n = self.n
        out = {}
        for a1, c1 in self.coeffs.items():
            d1 = sum(a1)
            for a2, c2 in other.coeffs.items():
                if d1 + sum(a2) < n:
                    a = tuple(x + y for x, y in zip(a1, a2))
                    out[a] = out.get(a, 0) + c1 * c2
        return self._like(out)

    def __eq__(self, other):
        return self.m == other.m and self.n == other.n and self.coeffs == other.coeffs

    def augmentation(self):
        return self.coeffs.get((0,) * self.m, 0)

    def degree_part(self, deg):
        return {a: c for a, c in self.coeffs.items() if sum(a) == deg}

    @classmethod
    def group_element(cls, m, n, g):
        """X^g = prod (1 + Y_i)^{g_i}; negative powers via geometric series."""
        one = cls.one(m, n)
        out = one
        for i, gi in enumerate(g):
            y = cls.generator(m, n, i)
            if gi >= 0:
                factor = one + y
            else:
                # (1 + Y)^{-1} = sum_{j < n} (-Y)^j, truncated
                factor = term = one
                for _ in range(1, n):
                    term = term * y.scale(-1)
                    factor = factor + term
            for _ in range(abs(gi)):
                out = out * factor
        return out


def _nonzero(coeffs):
    """coeffs without its zeros, every value in the form of `ratlin.exact`."""
    return {a: ratlin.exact(c) for a, c in coeffs.items() if c}


def gamma_map(m, g):
    """gamma(g) = sum g_i [Y_i] in a/a^2, as a degree-1 coefficient dict."""
    out = {}
    for i, gi in enumerate(g):
        if gi:
            alpha = [0] * m
            alpha[i] = 1
            out[tuple(alpha)] = gi
    return out


def gamma_vs_delta(m, sample_elements):
    """Compare the bar-complex cocycle d^0(1)(g) = g.1 - 1 in a/a^2 with gamma(g).

    Returns one boolean verdict per element; all must be True.
    """
    verdicts = []
    one = GroupAlgElem.one(m, 2)
    for g in sample_elements:
        cocycle = GroupAlgElem.group_element(m, 2, g) * one - one
        verdicts.append(cocycle.degree_part(1) == gamma_map(m, g))
    return verdicts


# ---------------------------------------------------------------------------
# symmetric powers


class SymElem:
    """Element of Sym^deg V on a finite basis, coefficients on sorted words."""

    def __init__(self, dim, degree, coeffs=None):
        self.dim = int(dim)
        self.degree = int(degree)
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                w = tuple(sorted(w))
                if len(w) != self.degree:
                    raise ValueError(f"word {w} has wrong degree")
                if c != 0:
                    self.coeffs[w] = self.coeffs.get(w, 0) + c
            self.coeffs = {w: c for w, c in self.coeffs.items() if c != 0}

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, 0) + c
        return SymElem(self.dim, self.degree, out)

    def scale(self, c):
        return SymElem(self.dim, self.degree, {w: v * c for w, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def is_zero(self):
        return not self.coeffs


def sym_words(dim, degree):
    return list(itertools.combinations_with_replacement(range(dim), degree))


def contract_word(chi, word):
    """c_n(chi) on one sorted word: sum over slots of chi(v)/n times the rest.

    Equals (1/n!) sum over permutations of chi(v_{sigma(1)}) [rest], grouped
    by which distinct letter sits in the contracted slot.
    """
    n = len(word)
    if n < 1:
        raise ValueError("contraction needs degree >= 1")
    out = {}
    seen = set()
    for pos, letter in enumerate(word):
        if letter in seen:
            continue
        seen.add(letter)
        count = word.count(letter)
        rest = word[:pos] + word[pos + 1 :]
        weight = chi(letter)
        if weight == 0:
            continue
        out[rest] = out.get(rest, 0) + Fraction(count, n) * weight
    return out


def c_n_contraction(chi, elem):
    """Linear extension of contract_word to a SymElem (exact or numeric)."""
    out = {}
    for word, coef in elem.coeffs.items():
        for rest, w in contract_word(chi, word).items():
            out[rest] = out.get(rest, 0) + coef * w
    return SymElem(elem.dim, elem.degree - 1, out)


# ---------------------------------------------------------------------------
# psi and the ladder


def _multinomial_table(m, n):
    """Per sorted word of length n over (1, Y_1, ..., Y_m), in the order of
    sym_words(m + 1, n): n! / prod(count!) and the counts of Y_1..Y_m."""
    table = []
    for word in itertools.combinations_with_replacement(range(m + 1), n):
        counts = [word.count(letter) for letter in range(m + 1)]
        coef = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
        table.append((coef, counts[1:]))
    return table


def _psi_on_group_element(table, beta):
    """psi^{(n)}(X^beta) = [cls(X^beta)]^{(x) n} in Sym^n(Q[Z^m]/a^2).

    cls(X^beta) = 1 + sum beta_i Y_i with coordinates on the basis
    (1, Y_1, ..., Y_m); the n-th symmetric power expands multinomially on
    sorted words, so every coefficient is an integer: the word's entry of
    table (_multinomial_table) times prod(beta_i ** count_i).  Returns the
    nonzero (word index, coefficient) pairs.
    """
    out = []
    for i, (coef, counts) in enumerate(table):
        for b, c in zip(beta, counts):
            if c:
                coef *= b**c
        if coef:
            out.append((i, coef))
    return out


def psi_n_matrix(m, n):
    """Matrix of psi^{(n)}: Q[Z^m]/a^{n+1} -> Sym^n(Q[Z^m]/a^2) + bijectivity.

    Source basis: Y-monomials of degree <= n (ordered by degree then lex);
    target basis: sorted words of length n over (1, Y_1..Y_m).  Returns
    (matrix, source_basis, target_basis, bijective); the entries are ints.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1, n >= 0")
    # both bases have C(m+n, n) elements; check before enumerating them
    dim = math.comb(m + n, n)
    if dim > DIM_CAP:
        raise DimensionOverflow(f"dimensions {dim}x{dim} above cap")
    source = _monomials_upto(m, n)
    target = sym_words(m + 1, n)
    # (X-1)^alpha only reaches X^beta with beta <= alpha, so |beta| <= n:
    # one psi image per source monomial serves every column
    table = _multinomial_table(m, n)
    images = {beta: _psi_on_group_element(table, beta) for beta in source}
    cols = []
    for alpha in source:
        # Y^alpha = prod (X_i - 1)^{alpha_i} expanded into group elements
        col = [0] * len(target)
        for beta, coef in _y_monomial_as_group_sum(alpha):
            for i, c in images[beta]:
                col[i] += coef * c
        cols.append(col)
    matrix = [list(row) for row in zip(*cols)]
    bijective = len(source) == len(target) and ratlin.rank(matrix) == len(source)
    return matrix, source, target, bijective


def _monomials_upto(m, n):
    out = []
    for deg in range(n + 1):
        out.extend(
            sorted(
                a
                for a in itertools.product(range(deg + 1), repeat=m)
                if sum(a) == deg
            )
        )
    return out


def _y_monomial_as_group_sum(alpha):
    """(X-1)^alpha as an integer combination of group elements X^beta."""
    per_axis = []
    for a in alpha:
        per_axis.append([(j, math.comb(a, j) * (-1) ** (a - j)) for j in range(a + 1)])
    for combo in itertools.product(*per_axis):
        beta = tuple(j for j, _c in combo)
        coef = 1
        for _j, c in combo:
            coef *= c
        yield beta, coef


def alpha_scale(n, k):
    """The correction homothety n!/(n-k)! on the grade-k factor."""
    return math.perm(n, k)


def _graded_basis(h_dim, up_to):
    """Basis of G = (+)_{k <= up_to} Sym^k H as (k, word) pairs; H symbols 1..h_dim."""
    basis = []
    for k in range(up_to + 1):
        basis.extend((k, w) for w in itertools.combinations_with_replacement(range(1, h_dim + 1), k))
    return basis


def _epsilon(letter):
    return int(letter == 0)


def _embed(word, level, correct):
    """psi_level (optionally theta_level) of a grade-k basis word."""
    k = len(word)
    full = (0,) * (level - k) + word
    coef = alpha_scale(level, k) if correct else 1
    return SymElem(-1, level, {full: coef})  # dim unused for words over symbols


def _ladder_failures(h_dim, n, correct):
    """The (k, word) of the grade-k basis words where the ladder square
    c_{n+1}(eps) o theta_{n+1} = theta_n o p_{n+1,n} fails, in basis order
    (psi in place of theta unless correct)."""
    for k, word in _graded_basis(h_dim, n + 1):
        lifted = _embed(word, n + 1, correct)
        lhs = c_n_contraction(_epsilon, SymElem(h_dim + 1, n + 1, lifted.coeffs))
        rhs = _embed(word, n, correct).coeffs if k <= n else {}
        if lhs != SymElem(h_dim + 1, n, rhs):
            yield k, word


def theta_ladder_check(h_dim, n):
    """Verify c_{n+1}(eps) o theta_{n+1} = theta_n o p_{n+1,n} on a full basis.

    Returns (psi_commutes, theta_commutes): the corrected ladder must
    commute exactly, the uncorrected one must fail for n >= 1 (the
    callers check both).
    """
    if h_dim < 1 or n < 0:
        raise ValueError("need h_dim >= 1, n >= 0")
    if (h_dim + 1) ** (n + 1) > DIM_CAP * 50:
        raise DimensionOverflow("ladder dimensions above cap")
    theta_ok = next(_ladder_failures(h_dim, n, True), None) is None
    psi_ok = next(_ladder_failures(h_dim, n, False), None) is None
    return psi_ok, theta_ok


def ladder_counterexample(h_dim, n, correct):
    """First basis element where the (corrected or not) ladder square fails."""
    for k, word in _ladder_failures(h_dim, n, correct):
        return {"grade": k, "word": list(word)}
    return None


def splitting_grading_check(h_dim, n_max):
    """The theta-ladder exhibits x* Log = prod Sym^k H, gradedly.

    Checks that theta_n^{-1} o c_{n+1}(eps) o theta_{n+1} is exactly the
    projection dropping grade n+1 (the corrected ladder square) for every
    n < n_max, and that the graded dimensions match dim Sym^k H.
    """
    if h_dim < 1 or n_max < 0:
        raise ValueError("need h_dim >= 1, n_max >= 0")
    dims_ok = all(
        len(list(itertools.combinations_with_replacement(range(h_dim), k)))
        == math.comb(k + h_dim - 1, h_dim - 1)
        for k in range(n_max + 1)
    )
    return dims_ok and all(next(_ladder_failures(h_dim, n, True), None) is None for n in range(n_max))
