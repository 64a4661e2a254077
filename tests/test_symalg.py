import itertools
import math
import random
from fractions import Fraction

import pytest

from polylat.errors import DimensionOverflow
from polylat.ratlin import rank
from polylat.symalg import (
    GroupAlgElem,
    _monomials_upto,
    SymElem,
    c_n_contraction,
    contract_word,
    gamma_vs_delta,
    ladder_counterexample,
    psi_n_matrix,
    splitting_grading_check,
    theta_ladder_check,
)


def test_group_algebra_arithmetic():
    one = GroupAlgElem.one(2, 3)
    x = GroupAlgElem.group_element(2, 3, (1, 0))
    y = GroupAlgElem.group_element(2, 3, (0, 1))
    assert x * y == GroupAlgElem.group_element(2, 3, (1, 1))
    inv = GroupAlgElem.group_element(2, 3, (-1, 0))
    assert x * inv == one  # exact in the truncation
    assert (x * y).augmentation() == 1


def test_psi_identity_at_level_zero():
    mat, src, tgt, bij = psi_n_matrix(2, 0)
    assert (len(src), len(tgt)) == (1, 1)
    assert bij and mat == [[Fraction(1)]]


@pytest.mark.parametrize("m,n,dim", [(2, 2, 6), (2, 3, 10)])
def test_psi_dimensions(m, n, dim):
    _, src, tgt, bij = psi_n_matrix(m, n)
    assert len(src) == dim and len(tgt) == dim
    assert bij


@pytest.mark.parametrize("m", [2, 4])
def test_psi_bijective_up_to_four(m):
    for n in range(5):
        *_, bij = psi_n_matrix(m, n)
        assert bij, (m, n)


def _fraction_psi_matrix(m, n):
    """Reference psi matrix: the multinomial expansion in Fraction, rebuilt per beta."""

    def psi_image(beta):
        coords = [Fraction(1)] + [Fraction(b) for b in beta]
        out = {}
        for word in itertools.combinations_with_replacement(range(m + 1), n):
            coef = Fraction(math.factorial(n))
            for letter in set(word):
                cnt = word.count(letter)
                coef = coef / math.factorial(cnt) * coords[letter] ** cnt
            if coef:
                out[word] = coef
        return out

    source = _monomials_upto(m, n)
    target = list(itertools.combinations_with_replacement(range(m + 1), n))
    cols = []
    for alpha in source:
        col = dict.fromkeys(target, Fraction(0))
        for beta in itertools.product(*(range(a + 1) for a in alpha)):
            sign = Fraction((-1) ** (sum(alpha) - sum(beta)))
            coef = sign * math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
            for w, c in psi_image(beta).items():
                col[w] += coef * c
        cols.append([col[w] for w in target])
    return [list(row) for row in zip(*cols)], source, target


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_psi_matrix_matches_fraction_oracle(m):
    for n in range(5):
        mat, src, tgt, bij = psi_n_matrix(m, n)
        ref, ref_src, ref_tgt = _fraction_psi_matrix(m, n)
        assert (src, tgt) == (ref_src, ref_tgt)
        assert all(type(x) is int for row in mat for x in row)
        assert mat == ref, (m, n)
        assert bij


def _gauss_jordan_rank(a):
    """Reference rank: Gauss-Jordan elimination with Fraction pivots."""
    m = [[Fraction(x) for x in row] for row in a]
    r = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [x - m[i][col] * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _random_matrix(rng, nrows, ncols, true_rank, rational):
    """A product of nrows x k and k x ncols factors, so its rank is at most k."""

    def entry():
        if rational:
            return Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        return rng.randrange(-9, 10)

    left = [[entry() for _ in range(true_rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(true_rank)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize("rational", [False, True])
def test_rank_matches_fraction_gauss_jordan(rational):
    rng = random.Random(17)
    shapes = [(6, 6), (9, 4), (4, 9), (1, 5), (5, 1), (8, 8)]
    seen = set()
    for nrows, ncols in shapes:
        for k in range(0, min(nrows, ncols) + 2):
            a = _random_matrix(rng, nrows, ncols, k, rational)
            ref = _gauss_jordan_rank(a)
            assert rank(a) == ref, (nrows, ncols, k)
            seen.add((nrows > ncols, nrows < ncols, ref < min(nrows, ncols)))
    # tall, wide and square cases, each with some rank-deficient matrices
    assert {(True, False, True), (False, True, True), (False, False, True)} <= seen
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0


def test_psi_dimension_cap():
    with pytest.raises(DimensionOverflow):
        psi_n_matrix(8, 8)


def test_gamma_examples():
    assert gamma_vs_delta(2, [(0, 0)]) == [True]
    assert gamma_vs_delta(2, [(1, 0)]) == [True]
    assert gamma_vs_delta(2, [(2, -3)]) == [True]


@pytest.mark.parametrize("m", [2, 4])
def test_gamma_random(m):
    rng = random.Random(13)
    els = [tuple(rng.randrange(-5, 6) for _ in range(m)) for _ in range(50)]
    assert all(gamma_vs_delta(m, els))


def test_contraction_unit_word_fixed_point():
    eps = lambda i: Fraction(1) if i == 0 else Fraction(0)
    for n in (1, 2, 5):
        w = SymElem(1, n, {(0,) * n: Fraction(1)})
        assert c_n_contraction(eps, w) == SymElem(1, n - 1, {(0,) * (n - 1): Fraction(1)})


def test_contraction_two_slot_example():
    chi = lambda i: Fraction(1) if i == 0 else Fraction(0)
    w = SymElem(2, 2, {(0, 1): Fraction(1)})
    assert c_n_contraction(chi, w) == SymElem(2, 1, {(1,): Fraction(1, 2)})


def test_contraction_zero_functional():
    zero = lambda i: Fraction(0)
    w = SymElem(2, 3, {(0, 1, 1): Fraction(5)})
    assert c_n_contraction(zero, w).is_zero()


def test_contraction_matches_permutation_definition():
    # brute-force (1/n!) sum over permutations on small words
    import itertools

    rng = random.Random(2)
    for _ in range(30):
        n = rng.randrange(1, 5)
        word = tuple(sorted(rng.choices(range(3), k=n)))
        chivals = {i: Fraction(rng.randrange(-3, 4), 2) for i in range(3)}
        chi = lambda i: chivals[i]
        brute = {}
        for sigma in itertools.permutations(range(n)):
            rest = tuple(sorted(word[j] for j in sigma[1:]))
            brute[rest] = brute.get(rest, Fraction(0)) + chi(word[sigma[0]])
        fact = 1
        for j in range(1, n + 1):
            fact *= j
        brute = {w: c / fact for w, c in brute.items() if c}
        assert contract_word(chi, word) == brute


def test_double_contraction_order_independent():
    # c_{n}(chi1) c_{n+1}(chi2) equals the symmetric double-contraction formula
    rng = random.Random(4)
    for _ in range(20):
        n = rng.randrange(1, 4)
        word = tuple(sorted(rng.choices(range(3), k=n + 1)))
        chi1 = {i: Fraction(rng.randrange(-2, 3)) for i in range(3)}
        chi2 = {i: Fraction(rng.randrange(-2, 3)) for i in range(3)}
        a = c_n_contraction(
            lambda i: chi1[i],
            c_n_contraction(lambda i: chi2[i], SymElem(3, n + 1, {word: Fraction(1)})),
        )
        b = c_n_contraction(
            lambda i: chi2[i],
            c_n_contraction(lambda i: chi1[i], SymElem(3, n + 1, {word: Fraction(1)})),
        )
        assert a == b


def test_ladder_numbers_hdim1():
    # c_2(psi_2(h)) = (1/2) psi_1(h), corrected by alpha_2^1 = 2
    psi_ok, theta_ok = theta_ladder_check(1, 1)
    assert theta_ok and not psi_ok
    bad = ladder_counterexample(1, 1, correct=False)
    assert bad == {"grade": 1, "word": [1]}
    assert ladder_counterexample(1, 1, correct=True) is None


@pytest.mark.parametrize("hdim", [1, 2, 4])
def test_ladder_commutes_up_to_five(hdim):
    for n in range(6):
        psi_ok, theta_ok = theta_ladder_check(hdim, n)
        assert theta_ok
        assert psi_ok == (n == 0)


def test_splitting_grading():
    assert splitting_grading_check(2, 3)
    assert splitting_grading_check(2, 0)
    assert splitting_grading_check(4, 2)


def test_sym_words_dimension_example():
    import itertools
    import math

    # graded dimensions (1, 2, 3, 4) for hdim = 2, k <= 3
    dims = [
        len(list(itertools.combinations_with_replacement(range(2), k))) for k in range(4)
    ]
    assert dims == [1, 2, 3, 4]
    assert all(dims[k] == math.comb(k + 1, 1) for k in range(4))
