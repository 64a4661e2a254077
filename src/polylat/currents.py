"""Numerical evaluation of the polylogarithmic current pieces.

Each piece g_{a,b}^k is a lattice series over the dual lattice with
numerator (Hodge monomial) x (double contraction of omega^d) and
denominator Q^{a+b+k}.  Over a point base the Lie-derivative tower
vanishes for k >= 1, so only k = 0 sums survive; the k-summation
structure and the exact coefficient
(-1)^d (a+b+k-1)! / ((a+b-1)! k! d! kappa) are nonetheless kept in full.

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

from .errors import OutOfRange, QuadratureUnstable, ZeroSectionSingularity
from .lattice import SumLattice, dual_lattice
from .polygauss import VectorPolynomial
from .symalg import SymElem, c_n_contraction
from .sums import map_shells, thread_count
from .torus import double_contraction_forms
from .zeta import converges_directly, kzeta

CONVENTION_NOTE = "iota=2*pi*i substituted numerically; omega = pairing/2; E(Jl,l)>0"


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

    def floats(self):
        return np.array([float(x) for x in self.u], dtype=float)


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
        chosen = []
        for j in range(n):
            trial = cols + [p_minus[:, j]]
            if np.linalg.matrix_rank(np.array(trial).T, tol=1e-10) == len(trial):
                cols.append(p_minus[:, j])
                chosen.append(j)
            if len(cols) == data.d:
                break
        if len(cols) != data.d:
            raise ZeroSectionSingularity("failed to extract a Hodge basis")
        self.basis_minus = np.array(cols).T  # 2d x d, columns f_j
        self.chosen_columns = chosen
        f = self.basis_minus
        self.coords_minus = np.linalg.solve(f.conj().T @ f, f.conj().T) @ p_minus
        resid = np.max(np.abs(f @ self.coords_minus - p_minus))
        if resid > 1e-10:
            raise ZeroSectionSingularity("Hodge projector does not factor over the basis")

    def coordinate_rows(self):
        """Rows of linear forms: symbols 0..d-1 then conjugates d..2d-1."""
        return np.vstack([self.coords_minus, self.coords_minus.conj()])


def _poly_product(p1, p2, nvars):
    out = {}
    for a1, c1 in p1.items():
        for a2, c2 in p2.items():
            key = tuple(x + y for x, y in zip(a1, a2))
            out[key] = out.get(key, 0j) + c1 * c2
    return out


def _linear_form_poly(row, nvars):
    zero = (0,) * nvars
    out = {}
    for j, c in enumerate(row):
        if c != 0:
            key = list(zero)
            key[j] = 1
            out[tuple(key)] = complex(c)
    return out if out else {zero: 0j}


def _word_polynomials(rows, d, a, b):
    """Multinomial expansion of (l^{0,-1})^{a-1} (l^{-1,0})^{b-1}.

    Returns {word: poly-in-lambda dict}, word = sorted symbols with
    0..d-1 for the (-1,0) side (exponent b-1) and d..2d-1 for (0,-1)
    (exponent a-1); each word's coefficient already carries its
    multinomial weight.
    """
    nvars = rows.shape[1]
    zero_poly = {(0,) * nvars: 1.0 + 0j}
    out = {(): zero_poly}
    for count, symbols in ((b - 1, range(d)), (a - 1, range(d, 2 * d))):
        if count == 0:
            continue
        expanded = {}
        for alphas in itertools.combinations_with_replacement(symbols, count):
            weight = math.factorial(count)
            for sym in set(alphas):
                weight //= math.factorial(alphas.count(sym))
            poly = {(0,) * nvars: complex(weight)}
            for sym in alphas:
                poly = _poly_product(poly, _linear_form_poly(rows[sym], nvars), nvars)
            expanded[alphas] = poly
        merged = {}
        for word0, poly0 in out.items():
            for alphas, poly in expanded.items():
                word = tuple(sorted(word0 + alphas))
                add = _poly_product(poly0, poly, nvars)
                if word in merged:
                    for kk, vv in add.items():
                        merged[word][kk] = merged[word].get(kk, 0j) + vv
                else:
                    merged[word] = dict(add)
        out = merged
    return out


def _contraction_quadratics(data, frame_rows):
    """Exterior coefficients of i_{l^{-1,0}} i_{l^{0,-1}} omega^d.

    For each exterior monomial I returns a quadratic-in-lambda polynomial
    dict, assembled bilinearly from the exact basis table
    i_{e_p} i_{e_q} omega^d with weights (P_- l)_p (P_+ l)_q.
    """
    n = data.rank
    jf = data.j_float()
    p_minus = (np.eye(n) - 1j * jf) / 2.0
    p_plus = p_minus.conj()
    table = double_contraction_forms(data)
    quads = {}
    for (p, q), form in table.items():
        for (char, ext, _word), coef in form.terms.items():
            if any(x != 0 for x in char):
                continue
            c = coef.numeric()
            if c == 0:
                continue
            # weight (P_- l)_p (P_+ l)_q: quadratic polynomial in l
            rowp = _linear_form_poly(p_minus[p], n)
            rowq = _linear_form_poly(p_plus[q], n)
            quad = _poly_product(rowp, rowq, n)
            dst = quads.setdefault(ext, {})
            for kk, vv in quad.items():
                dst[kk] = dst.get(kk, 0j) + c * vv
    return {
        ext: {k: v for k, v in poly.items() if v != 0}
        for ext, poly in quads.items()
        if any(v != 0 for v in poly.values())
    }


def g_abk(data, a, b, k, u, tol=1e-9, mode="accel"):
    """One expansion piece g_{a,b}^k at the torus point u (away from the lattice).

    Over a point base the k >= 1 pieces vanish exactly; the k = 0 piece is
    one vector-valued lattice zeta evaluation at s = a+b over the dual
    lattice, assembled through the split-Mellin continuation (which agrees
    with direct summation wherever the latter converges absolutely).
    """
    if a < 1 or b < 1 or k < 0 or k > 2 * data.d:
        raise OutOfRange(f"bad indices a={a}, b={b}, k={k}")
    frame = SumLattice.from_abelian(data, side="dual")
    if frame.in_base_lattice(np.asarray(u, dtype=float) if not _is_exact(u) else u):
        raise ZeroSectionSingularity("g_{a,b} is singular on the zero section")
    sym_degree = a + b - 2
    form_degree = 2 * data.d - 2
    if k >= 1:
        # constant base: the Lie-derivative factor [l^{-1,0}]^k omega^d drops out
        return CurrentValue(
            sym_degree=sym_degree,
            form_degree=form_degree,
            components={},
            point=tuple(float(x) for x in u),
            regime="vanishing",
            error_bound=0.0,
            meta={"k": k, "convention": CONVENTION_NOTE},
        )
    hframe = HodgeFrame(data)
    rows = hframe.coordinate_rows()
    words = _word_polynomials(rows, data.d, a, b)
    quads = _contraction_quadratics(data, rows)
    n = data.rank
    comps = sorted(
        ((word, ext) for word in words for ext in quads),
        key=lambda we: (we[1], we[0]),
    )
    coeffs = {}
    for idx, (word, ext) in enumerate(comps):
        poly = _poly_product(words[word], quads[ext], n)
        for alpha, c in poly.items():
            if c == 0:
                continue
            vec = coeffs.setdefault(alpha, np.zeros(len(comps), dtype=complex))
            vec[idx] += c
    P = VectorPolynomial(n, coeffs, target_dim=len(comps), homogeneous=True)
    s = a + b + k
    zv = kzeta(frame, P, u, s, mode=mode, tol=tol)
    components = {comps[i]: complex(zv.value[i]) for i in range(len(comps))}
    return CurrentValue(
        sym_degree=sym_degree,
        form_degree=form_degree,
        components=components,
        point=tuple(float(x) for x in u),
        regime=zv.regime,
        error_bound=zv.error_bound,
        meta={
            "k": k,
            "s": s,
            "direct_eligible": converges_directly(P, s, n),
            "convention": CONVENTION_NOTE,
        },
    )


def _is_exact(u):
    return any(isinstance(x, Fraction) for x in u)


def g_grade(data, u, n, tol=1e-9, mode="accel"):
    """Grade-n assembly: sum over a+b=n of (-1)^a sum_k coeff * g_{a,b}^k."""
    if n < 2:
        raise OutOfRange("grades start at n = 2")
    kappa = dual_lattice(data).kappa
    components = {}
    err = 0.0
    regimes = set()
    for a in range(1, n):
        b = n - a
        for k in range(0, 2 * data.d + 1):
            coeff = coefficient(a, b, k, data.d, kappa)
            piece = g_abk(data, a, b, k, u, tol=tol, mode=mode)
            regimes.add(piece.regime)
            err += abs(float(coeff)) * piece.error_bound
            sign = (-1) ** a
            for key, val in piece.components.items():
                components[key] = components.get(key, 0j) + sign * float(coeff) * val
    regime = "accelerated" if "accelerated" in regimes else "direct"
    return CurrentValue(
        sym_degree=n - 2,
        form_degree=2 * data.d - 2,
        components=components,
        point=tuple(float(x) for x in u),
        regime=regime,
        error_bound=err,
        meta={"grade": n, "kappa": kappa, "convention": CONVENTION_NOTE},
    )


def g_total(data, u, n_max, tol=1e-9, mode="accel", threads=None):
    """Graded list of current values for n = 2..n_max.

    Grades are independent tasks; with threads > 1 they are evaluated
    concurrently and collected in fixed grade order (the per-grade values
    keep the summation engines' determinism contract).
    """
    if n_max < 2:
        raise OutOfRange("n_max must be >= 2")
    grades = list(range(2, n_max + 1))
    values = map_shells(
        lambda n: g_grade(data, u, n, tol=tol, mode=mode), grades, thread_count(threads)
    )
    return dict(zip(grades, values))


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
