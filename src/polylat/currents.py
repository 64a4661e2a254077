"""Numerical evaluation of the polylogarithmic current pieces.

Each piece g_{a,b}^k is a lattice series over the dual lattice with
numerator (Hodge monomial) x (double contraction of omega^d) and
denominator Q^{a+b+k}.  Over a point base the Lie-derivative tower
vanishes for k >= 1, so only k = 0 sums survive; the exact coefficient
(-1)^d (a+b+k-1)! / ((a+b-1)! k! d! kappa) is kept in full.  Every
surviving piece of grade n = a+b is a lattice zeta value at s = n, so a
grade is one vector-valued zeta call.

Values land in symmetric words over the complex Hodge basis (images of
the lattice basis under the eigenprojectors), tensored with exterior
monomials of degree 2d-2.  Grade-n values (n = a+b) carry Sym^{n-2}
words; the grade needed by the Eisenstein class at level l is n = l+3.
"""

from dataclasses import dataclass, field
from fractions import Fraction
import itertools
import math

import numpy as np

from .errors import BudgetExceeded, OutOfRange, QuadratureUnstable, ZeroSectionSingularity
from .polarized import CONVENTION_NOTE
from .polygauss import VectorPolynomial, linear_form_products
from .symalg import SymElem, c_n_contraction
from .torus import double_contraction_forms
from .zeta import kzeta_accelerated

# monomials x components that the polynomial of one grade may have: d = 2
# grade 12 has 7.8e5 and peaks near 350 MB, and the count grows as n^6 there
GRADE_ENTRIES_BUDGET = 10**6


def coefficient(a, b, k, d, kappa):
    """Exact expansion coefficient (-1)^d (a+b+k-1)!/((a+b-1)! k! d! kappa)."""
    if a < 1 or b < 1:
        raise OutOfRange("need a, b >= 1")
    if k < 0 or k > 2 * d:
        raise OutOfRange("need 0 <= k <= 2d")
    if d < 1 or kappa < 1:
        raise OutOfRange("need d >= 1 and kappa >= 1")
    num = (-1) ** d * math.factorial(a + b + k - 1)
    den = math.factorial(a + b - 1) * math.factorial(k) * math.factorial(d) * kappa
    return Fraction(num, den)


@dataclass(frozen=True)
class TorsionPoint:
    """Rational torus point of exact order N (N u integral, u not integral)."""

    u: tuple
    order: int

    @classmethod
    def from_rationals(cls, coords):
        u = tuple(Fraction(x) for x in coords)
        order = 1
        for x in u:
            order = order * x.denominator // math.gcd(order, x.denominator)
        if order == 1:
            raise ZeroSectionSingularity("point lies on the zero section")
        return cls(u=u, order=order)


@dataclass
class CurrentValue:
    """(2d-2)-form value with Sym^{a+b-2} coefficients at a smooth point."""

    sym_degree: int
    form_degree: int
    components: dict  # (word tuple, ext tuple) -> complex
    point: tuple
    regime: str
    error_bound: float
    meta: dict = field(default_factory=dict)

    def component(self, word, ext=()):
        return self.components.get((tuple(word), tuple(ext)), 0j)

    def norm(self):
        return max((abs(v) for v in self.components.values()), default=0.0)

    def is_zero(self):
        return all(v == 0 for v in self.components.values())


class HodgeFrame:
    """Numeric Hodge bases and coordinates for one polarized datum.

    Symbols 0..d-1 name the (-1,0) basis vectors f_j = P_- e_{i_j}; symbols
    d..2d-1 their conjugates.  coords_minus maps a real lattice vector to
    its f-coordinates, so l^{-1,0} = sum_j coords_minus[j] . f_j.
    """

    def __init__(self, data):
        self.data = data
        n = data.rank
        jf = data.j_float()
        p_minus = (np.eye(n) - 1j * jf) / 2.0
        cols = []
        for j in range(n):
            trial = cols + [p_minus[:, j]]
            if np.linalg.matrix_rank(np.array(trial).T, tol=1e-10) == len(trial):
                cols.append(p_minus[:, j])
            if len(cols) == data.d:
                break
        if len(cols) != data.d:
            raise ZeroSectionSingularity("failed to extract a Hodge basis")
        self.basis_minus = np.array(cols).T  # 2d x d, columns f_j
        f = self.basis_minus
        self.coords_minus = np.linalg.solve(f.conj().T @ f, f.conj().T) @ p_minus
        resid = np.max(np.abs(f @ self.coords_minus - p_minus))
        if resid > 1e-10:
            raise ZeroSectionSingularity("Hodge projector does not factor over the basis")

    def coordinate_rows(self):
        """Rows of linear forms: symbols 0..d-1 then conjugates d..2d-1."""
        return np.vstack([self.coords_minus, self.coords_minus.conj()])


def _words(d, a, b):
    """The words of the multinomial expansion of (l^{0,-1})^{a-1} (l^{-1,0})^{b-1}.

    Yields (word, weight): word = sorted symbols, 0..d-1 for the (-1,0)
    side (b-1 of them) and d..2d-1 for (0,-1) (a-1 of them); weight is the
    word's multinomial coefficient.
    """
    for low in itertools.combinations_with_replacement(range(d), b - 1):
        for high in itertools.combinations_with_replacement(range(d, 2 * d), a - 1):
            word = low + high
            weight = math.factorial(b - 1) * math.factorial(a - 1)
            for sym in set(word):
                weight //= math.factorial(word.count(sym))
            yield word, weight


def _contraction_quadratics(data):
    """Exterior coefficients of i_{l^{-1,0}} i_{l^{0,-1}} omega^d.

    Each is a quadratic in lambda, assembled bilinearly from the exact
    basis table i_{e_p} i_{e_q} omega^d with weights (P_- l)_p (P_+ l)_q.
    Returns (exts, exponents, quads): the exterior monomials whose
    quadratic is not zero, the multi-indices that occur and the
    (monomials x exts) coefficient matrix.
    """
    n = data.rank
    p_minus = (np.eye(n) - 1j * data.j_float()) / 2.0
    terms = [
        (p, q, ext, coef.numeric())
        for (p, q), form in double_contraction_forms(data).items()
        for (char, ext, _word), coef in form.terms.items()
        if not any(char)
    ]
    exts = sorted({ext for _p, _q, ext, _c in terms})
    powers = np.zeros((len(terms), 2 * n), dtype=int)
    weights = np.zeros((len(terms), len(exts)), dtype=complex)
    for i, (p, q, ext, c) in enumerate(terms):
        powers[i, p] += 1
        powers[i, n + q] += 1
        weights[i, exts.index(ext)] = c
    exps, products = linear_form_products(np.vstack([p_minus, p_minus.conj()]), powers)
    quads = products @ weights
    nonzero = quads != 0
    keep = nonzero.any(axis=0)
    rows = nonzero.any(axis=1)
    return [ext for ext, k in zip(exts, keep) if k], exps[rows], quads[rows][:, keep]


def _dual_frame(data, u):
    """The dual summation frame of data (one per data object), once u is
    checked to lie off the zero section."""
    frame = data.dual_frame
    if frame.on_zero_section([u])[0]:
        raise ZeroSectionSingularity("g_{a,b} is singular on the zero section")
    return frame


def _current(data, u, n, weights, tol):
    """Sum over a in weights of weights[a] * g_{a,n-a}^0 at u, as one zeta call.

    Every piece of grade n is a lattice zeta value at s = n over the same
    dual frame, and the words of different a use disjoint components, so
    the (word, ext) components of every a are concatenated into one
    vector-valued polynomial whose coefficients carry the weights.  The
    error bound is that one call's bound on the whole vector.
    """
    frame = _dual_frame(data, u)
    # the polynomial's size from (d, n, rank) alone: every monomial of degree
    # n, and one component per word of each a and exterior monomial of degree 2d - 2
    d, rank = data.d, data.rank
    words_count = sum(math.comb(d + n - a - 2, n - a - 1) * math.comb(d + a - 2, a - 1) for a in weights)
    entries = math.comb(n + rank - 1, rank - 1) * words_count * math.comb(rank, 2)
    if entries > GRADE_ENTRIES_BUDGET:
        raise BudgetExceeded(
            f"grade {n}: {entries:.3g} monomials x components exceed {GRADE_ENTRIES_BUDGET:.3g}"
        )
    exts, betas, quads = _contraction_quadratics(data)
    # a word times a quadratic monomial lambda^beta is one product of
    # linear forms: the word's Hodge coordinate rows, then beta's unit rows
    forms = np.vstack([HodgeFrame(data).coordinate_rows(), np.eye(data.rank)])
    words, powers, scale = [], [], []
    for a, weight in weights.items():
        for word, mult in _words(data.d, a, n - a):
            counts = [word.count(sym) for sym in range(2 * data.d)]
            words.append(word)
            powers.extend(counts + beta for beta in betas.tolist())
            scale.append(weight * mult)
    exps, products = linear_form_products(forms, powers)
    # component (word, ext): sum over beta of quads[beta, ext] times word * lambda^beta
    coeffs = np.einsum(
        "kwb,be,w->kwe", products.reshape(len(exps), len(words), len(betas)), quads, np.array(scale)
    ).reshape(len(exps), -1)
    comps = [(word, ext) for word in words for ext in exts]
    P = VectorPolynomial(data.rank, dict(zip(map(tuple, exps.tolist()), coeffs)), target_dim=len(comps))
    zv = kzeta_accelerated(frame, P, u, n, tol=tol)
    return CurrentValue(
        sym_degree=n - 2,
        form_degree=2 * data.d - 2,
        components={comp: complex(v) for comp, v in zip(comps, zv.value)},
        point=tuple(float(x) for x in u),
        regime=zv.regime,
        error_bound=zv.error_bound,
        meta={"s": n, "convention": CONVENTION_NOTE},
    )


def g_abk(data, a, b, k, u, tol=1e-9):
    """One expansion piece g_{a,b}^k at the torus point u (away from the lattice).

    Over a point base the k >= 1 pieces vanish exactly; the k = 0 piece is
    one vector-valued lattice zeta evaluation at s = a+b over the dual
    lattice, assembled through the split-Mellin continuation (which agrees
    with direct summation wherever the latter converges absolutely).
    """
    if a < 1 or b < 1 or k < 0 or k > 2 * data.d:
        raise OutOfRange(f"bad indices a={a}, b={b}, k={k}")
    if k >= 1:
        _dual_frame(data, u)  # every k is singular on the zero section
        # constant base: the Lie-derivative factor [l^{-1,0}]^k omega^d drops out
        return CurrentValue(
            sym_degree=a + b - 2,
            form_degree=2 * data.d - 2,
            components={},
            point=tuple(float(x) for x in u),
            regime="vanishing",
            error_bound=0.0,
            meta={"k": k, "convention": CONVENTION_NOTE},
        )
    value = _current(data, u, a + b, {a: 1}, tol)
    value.meta["k"] = 0
    return value


def g_grade(data, u, n, tol=1e-9):
    """Grade-n assembly: sum over a+b=n of (-1)^a sum_k coeff * g_{a,b}^k.

    The k >= 1 terms vanish over a point base (see g_abk), so the grade is
    the k = 0 pieces weighted by (-1)^a coeff(a, n-a, 0), evaluated as one
    vector and certified to tol as a whole.
    """
    if n < 2:
        raise OutOfRange("grades start at n = 2")
    kappa = abs(data.det_e())
    weights = {a: (-1) ** a * float(coefficient(a, n - a, 0, data.d, kappa)) for a in range(1, n)}
    value = _current(data, u, n, weights, tol)
    value.meta.update(grade=n, kappa=kappa)
    return value


def g_total(data, u, n_max, tol=1e-9, threads=None):
    """Graded list of current values for n = 2..n_max.

    Each grade is one vector certified to tol as a whole (see g_grade).
    """
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if n_max < 2:
        raise OutOfRange("n_max must be >= 2")
    return {n: g_grade(data, u, n, tol=tol) for n in range(2, n_max + 1)}


def pairing_functional(data, vector):
    """chi(w) = <w, v> = 2*pi*i*E(w, v), on the Hodge symbol basis."""
    hframe = HodgeFrame(data)
    basis = np.hstack([hframe.basis_minus, hframe.basis_minus.conj()])
    e = data.e_float()
    v = np.asarray(vector, dtype=complex)
    vals = 2j * math.pi * (basis.T @ e @ v)
    return {i: complex(vals[i]) for i in range(basis.shape[1])}


def dual_coordinate_functional(data, symbol=0):
    """chi extracting one Hodge coordinate (the default contraction slot)."""
    return {i: 1.0 + 0j if i == symbol else 0j for i in range(data.rank)}


def eisenstein_value(data, x, l, n_max, tol=1e-9, functional=None, threads=None):
    """Fiberwise Eisenstein number: pullback at torsion, project, contract.

    Pulls the current back at the torsion point (characters are exact
    roots of unity there), extracts the Sym^{l+1} graded piece (the grade
    n = l+3 term of the series) and contracts one symmetric slot with the
    given functional on the Hodge basis, landing in Sym^l.
    """
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if not isinstance(x, TorsionPoint):
        x = TorsionPoint.from_rationals(x)
    if l < 0:
        raise OutOfRange("l must be >= 0")
    n = l + 3
    if n > n_max:
        raise OutOfRange(f"grade {n} = l+3 not covered by n_max = {n_max}")
    chi = functional if functional is not None else dual_coordinate_functional(data)
    grade = g_grade(data, x.u, n, tol=tol)
    out = {}
    for (word, ext), val in grade.components.items():
        if abs(val) == 0:
            continue
        elem = SymElem(data.rank, len(word), {word: val})
        contracted = c_n_contraction(lambda sym: chi[sym], elem)
        for rest, coef in contracted.coeffs.items():
            key = (rest, ext)
            out[key] = out.get(key, 0j) + coef
    return CurrentValue(
        sym_degree=l,
        form_degree=grade.form_degree,
        components=out,
        point=tuple(float(v) for v in x.u),
        regime=grade.regime,
        error_bound=grade.error_bound * max((abs(v) for v in chi.values()), default=1.0),
        meta={"l": l, "order": x.order, "convention": CONVENTION_NOTE},
    )


def pair_with_test_form(component_fn, testform_fn, eps=0.05, quad_n=64, rank=2):
    """Trapezoid pairing of a smooth component against a test form on the torus.

    Integrates component * testform over [0,1)^rank minus an eps-ball
    around the lattice point 0 and reports the eps-refinement trend; the
    quadrature error is estimated by halving the grid.
    """
    if quad_n < 8:
        raise QuadratureUnstable("quadrature grid too coarse")

    def integrate(eps_val, n):
        axes = [np.arange(n) / n for _ in range(rank)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        wrapped = np.minimum(pts, 1.0 - pts)
        dist = np.sqrt((wrapped**2).sum(axis=1))
        total = 0j
        for p, dd in zip(pts, dist):
            if dd < eps_val:
                continue
            total += component_fn(p) * testform_fn(p)
        return total / n**rank

    val = integrate(eps, quad_n)
    val_coarse = integrate(eps, quad_n // 2)
    quad_err = abs(val - val_coarse)
    val_half_eps = integrate(eps / 2, quad_n)
    trend = abs(val - val_half_eps)
    if trend > 10 * max(quad_err, 1e-14):
        raise QuadratureUnstable(
            f"excision sensitivity {trend:.2e} above 10x quadrature error {quad_err:.2e}"
        )
    return {"value": val, "eps_trend": trend, "quad_error": quad_err}
