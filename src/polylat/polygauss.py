"""Vector-valued polynomials on a lattice and their exact Gaussian transforms.

The closed form of int e^{<x,h>} P(x) e^{-tQ(x)} e^{<x,p>} vol_x is
computed by completing the square and taking Gaussian moments (Wick
recursion), which yields

    vol_scale * pi^{r/2} det(M)^{-1/2} * t^{-r/2}
      * exp(-(pi^2/t) Qdual(p+h)) * S[P](p+h; t)

with Qdual(w) = w^T B^T M^{-1} B w and S[P] a polynomial in w = p+h whose
coefficients are Laurent polynomials in t.  The familiar t-free
polynomial is the t = 1 specialization; downstream Mellin integrals need
the exact t powers, so they are kept symbolic (a map from the negative
t-exponent to the coefficient).
"""

from dataclasses import dataclass, field
import functools
import itertools
import math

import numpy as np

from .errors import ArityMismatch, NotPositiveDefinite


class VectorPolynomial:
    """Polynomial map R^arity -> C^target_dim stored as multi-index coefficients.

    `coeffs` maps a multi-index tuple alpha to a complex vector of length
    target_dim.  Homogeneous polynomials keep |alpha| constant; mixed
    degrees are allowed only with homogeneous=False.
    """

    def __init__(self, arity, coeffs, target_dim=1, homogeneous=True):
        self.arity = int(arity)
        self.target_dim = int(target_dim)
        self.homogeneous = bool(homogeneous)
        self.coeffs = {}
        for alpha, vec in coeffs.items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != self.arity or min(alpha, default=0) < 0:
                raise ArityMismatch(f"bad multi-index {alpha}")
            v = np.atleast_1d(np.asarray(vec, dtype=complex))
            if v.shape != (self.target_dim,):
                raise ArityMismatch("coefficient vector has wrong dimension")
            self.coeffs[alpha] = v
        # the evaluator's form of coeffs: one multi-index and one coefficient
        # row per nonzero monomial, and the coordinates that occur
        self.matrix = np.array(list(self.coeffs.values()), dtype=complex).reshape(-1, self.target_dim)
        nonzero = self.matrix.any(axis=1)
        if not nonzero.all():
            self.coeffs = {alpha: v for (alpha, v), keep in zip(self.coeffs.items(), nonzero) if keep}
            self.matrix = self.matrix[nonzero]
        self.exponents = np.array(list(self.coeffs), dtype=int).reshape(-1, self.arity)
        self._occurring = [(j, max(col)) for j, col in enumerate(zip(*self.coeffs)) if max(col)]
        degrees = {sum(a) for a in self.coeffs}
        self.degree = max(degrees, default=0)
        if self.homogeneous and len(degrees) > 1:
            raise ArityMismatch("mixed degrees in a homogeneous polynomial")

    @classmethod
    def constant(cls, value, arity, target_dim=1):
        v = np.atleast_1d(np.asarray(value, dtype=complex))
        return cls(arity, {(0,) * arity: v}, target_dim=len(v), homogeneous=True)

    @classmethod
    def monomial(cls, alpha, arity, coeff=1.0):
        return cls(arity, {tuple(alpha): np.array([coeff], dtype=complex)})

    def evaluate(self, lam):
        lam = np.asarray(lam)
        if lam.shape != (self.arity,):
            raise ArityMismatch(f"expected {self.arity} coordinates, got {lam.shape}")
        return self.evaluate_many(lam[None, :])[0]

    def evaluate_many(self, pts):
        """Vectorized evaluation; pts is (n, arity), result (n, target_dim)."""
        pts = np.asarray(pts, dtype=complex if np.iscomplexobj(pts) else float)
        return _times(self.monomial_table(pts), self.matrix)

    def monomial_table(self, pts):
        """The (points x monomials) table of pts^alpha for an (n, arity) array pts.

        One column per row of exponents; times `matrix` it gives the values.
        The powers of each coordinate that occurs are taken once, by
        repeated multiplication up to its highest exponent.
        """
        table = np.ones((len(self.exponents), len(pts)), dtype=pts.dtype)
        for j, top in self._occurring:
            powers = np.empty((top + 1, len(pts)), dtype=pts.dtype)
            powers[0] = 1.0
            for k in range(top):
                powers[k + 1] = powers[k] * pts[:, j]
            table *= powers[self.exponents[:, j]]
        return table.T

    def value_at_zero(self):
        return self.coeffs.get((0,) * self.arity, np.zeros(self.target_dim, dtype=complex))

    def coeff_l1(self):
        """Sum of coefficient magnitudes, componentwise max (tail bounds)."""
        if not self.coeffs:
            return 0.0
        return float(sum(np.max(np.abs(v)) for v in self.coeffs.values()))

    def is_zero(self):
        return not self.coeffs


def _times(table, matrix):
    """table @ matrix for a complex matrix; a real table multiplies the real
    and imaginary parts in one real product, with no complex copy of it."""
    if np.iscomplexobj(table):
        return np.dot(table, matrix)
    return np.dot(table, matrix.view(float)).view(complex)


@dataclass
class GaussPolyFactor:
    """Closed-form Gaussian transform of e^{<x,h>} P(x) e^{-tQ(x)}.

    Value at dual point p and time t:
        disc_factor * t**prefactor_exponent
          * exp(-(pi^2/t) * Qdual(p+h)) * poly(p+h; t)
    where poly(w; t) = sum over (alpha, m) of coeff * w^alpha * t^{-m}.
    """

    dual_form: np.ndarray
    shift: np.ndarray
    prefactor_exponent: float  # power of t on the prefactor (-rank/2)
    disc_factor: float  # pi^{r/2} Disc(Q)^{-1/2} in the pinned volume
    poly: dict = field(default_factory=dict)  # (alpha, m) -> complex vector
    target_dim: int = 1

    def __post_init__(self):
        # poly(w; t) = sum over m of t^-m by_tpower[m](w)
        groups = {}
        for (alpha, m), vec in self.poly.items():
            groups.setdefault(m, {})[alpha] = vec
        self.by_tpower = {
            m: VectorPolynomial(len(self.shift), groups[m], self.target_dim, homogeneous=False)
            for m in sorted(groups)
        }

    def poly_eval(self, w, t):
        return self.poly_eval_many(np.asarray(w, dtype=float)[None, :], t)[0]

    def evaluate(self, p, t):
        w = np.asarray(p, dtype=float) + self.shift
        envelope = math.exp(-(math.pi**2 / t) * float(w @ self.dual_form @ w))
        return (
            self.disc_factor
            * t**self.prefactor_exponent
            * envelope
            * self.poly_eval(w, t)
        )

    def poly_eval_many(self, ws, t):
        """poly(w; t) for each row of ws, shape (n, target_dim)."""
        ws = np.asarray(ws, dtype=float)
        out = np.zeros((ws.shape[0], self.target_dim), dtype=complex)
        for m, part in self.by_tpower.items():
            out += _times(part.monomial_table(ws), part.matrix * t ** (-m))
        return out

    def poly_degree(self):
        return max((sum(alpha) for (alpha, _m) in self.poly), default=0)

def _check_spd(q):
    q = np.asarray(q, dtype=float)
    try:
        np.linalg.cholesky(0.5 * (q + q.T))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("quadratic form is not positive definite") from None
    return 0.5 * (q + q.T)


def dual_form(q, pairing=None):
    """Dual quadratic form with respect to the pairing: B^T M^{-1} B."""
    m = _check_spd(q)
    r = m.shape[0]
    b = np.eye(r) if pairing is None else np.asarray(pairing, dtype=float)
    return b.T @ np.linalg.inv(m) @ b


def _wick_moments(sigma0, max_deg):
    """E[y^beta] for the centered Gaussian with covariance sigma0, |beta| <= max_deg.

    Returns a dict beta -> float using the Stein recursion
    E[y_i y^gamma] = sum_j gamma_j sigma0[i,j] E[y^{gamma - e_j}].
    """
    r = sigma0.shape[0]
    moments = {(0,) * r: 1.0}

    def rec(beta):
        if beta in moments:
            return moments[beta]
        if sum(beta) % 2 == 1:
            moments[beta] = 0.0
            return 0.0
        i = next(k for k, b in enumerate(beta) if b > 0)
        gamma = list(beta)
        gamma[i] -= 1
        total = 0.0
        for j in range(r):
            if gamma[j] > 0:
                sub = list(gamma)
                sub[j] -= 1
                total += gamma[j] * sigma0[i, j] * rec(tuple(sub))
        moments[beta] = total
        return total

    for beta in itertools.product(range(max_deg + 1), repeat=r):
        if sum(beta) <= max_deg:
            rec(beta)
    return moments


def gaussian_ft(P, q, h=None, pairing=None, vol_scale=1.0):
    """Exact transform of e^{<x,h>} P(x) e^{-tQ(x)} under the 2*pi*i*E kernel.

    Completing the square at x0 = (pi*i/t) M^{-1} B w gives
    S[P](w) = E_y[P(y + x0)] over the Gaussian with covariance M^{-1}/(2t);
    both the x0 powers and the Wick pairings contribute negative powers of
    t, collected per monomial in w.
    """
    m = _check_spd(q)
    r = m.shape[0]
    if P.arity != r:
        raise ArityMismatch("polynomial arity does not match the form rank")
    b = np.eye(r) if pairing is None else np.asarray(pairing, dtype=float)
    h = np.zeros(r) if h is None else np.asarray(h, dtype=float)
    minv = np.linalg.inv(m)
    dmat = minv @ b  # x0 = (pi i / t) * dmat @ w
    qdual = b.T @ minv @ b
    disc = vol_scale * math.pi ** (r / 2) / math.sqrt(np.linalg.det(m))

    moments = _wick_moments(minv, P.degree)
    # P term cvec * x^alpha with x = y + x0: each y^beta x0^gamma (gamma =
    # alpha - beta) contributes its Gaussian moment times (pi i / t)^|gamma|
    # (dmat @ w)^gamma, collected per (gamma, power of 1/t)
    weights = {}
    for alpha, cvec in P.coeffs.items():
        for beta in itertools.product(*[range(a + 1) for a in alpha]):
            mom = moments[beta]  # 0 for odd |beta|
            if mom == 0.0:
                continue
            half = sum(beta) // 2
            gamma = tuple(a - bb for a, bb in zip(alpha, beta))
            binom = math.prod(math.comb(a, bb) for a, bb in zip(alpha, beta))
            key = (gamma, half + sum(gamma))
            vec = cvec * (binom * mom / 2.0**half * (math.pi * 1j) ** sum(gamma))
            weights[key] = vec + weights[key] if key in weights else vec

    keys = list(weights)
    exps, expanded = linear_form_products(dmat, [gamma for gamma, _m in keys])
    poly = {}
    for m in sorted({m for _gamma, m in keys}):
        cols = [i for i, key in enumerate(keys) if key[1] == m]
        block = expanded[:, cols] @ np.array([weights[keys[i]] for i in cols])
        for i in np.flatnonzero(block.any(axis=1)):
            poly[(tuple(exps[i].tolist()), m)] = block[i]
    return GaussPolyFactor(
        dual_form=qdual,
        shift=h,
        prefactor_exponent=-r / 2.0,
        disc_factor=disc,
        poly=poly,
        target_dim=P.target_dim,
    )


def linear_form_products(forms, powers):
    """Monomial expansion of prod_j (forms[j] . x)^p_j for each row p of powers.

    Returns (exponents, coeffs): the multi-indices, one row per monomial,
    and a (monomials x len(powers)) matrix whose column i expands row i.
    The products of one degree are expanded together over every monomial
    of that degree, one linear form per step.
    """
    forms = np.asarray(forms, dtype=complex)
    arity = forms.shape[1]
    groups = {}  # degree -> the products of that degree
    for i, p in enumerate(powers):
        groups.setdefault(sum(p), []).append(i)
    degrees = sorted(groups)
    exps = np.concatenate([_monomials(arity, deg) for deg in degrees] or [np.zeros((0, arity), dtype=int)])
    coeffs = np.zeros((len(exps), len(powers)), dtype=complex)
    row = 0
    for deg in degrees:
        cols = groups[deg]
        # the form taken at each step, one row per product
        steps = np.array([[j for j, count in enumerate(powers[i]) for _ in range(count)] for i in cols], dtype=int)
        acc = np.ones((len(cols), 1), dtype=complex)
        for k in range(deg):
            # beta of degree k + 1 takes acc[beta - e_j] * form_j over j; a
            # zero column stands in where beta_j = 0
            padded = np.concatenate([acc, np.zeros((len(cols), 1))], axis=1)
            acc = np.einsum("njb,nj->nb", padded[:, _lowered(arity, k + 1)], forms[steps[:, k]])
        coeffs[row:row + acc.shape[1], cols] = acc.T
        row += acc.shape[1]
    return exps, coeffs


@functools.lru_cache(maxsize=256)
def _monomials(arity, deg):
    """The multi-indices of degree deg in arity variables, one row each (read only)."""
    combos = itertools.combinations_with_replacement(range(arity), deg)
    out = np.array([[combo.count(j) for j in range(arity)] for combo in combos], dtype=int)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _lowered(arity, deg):
    """Row j: for each beta of degree deg, the index of beta - e_j among
    _monomials(arity, deg - 1), or their count where beta_j = 0."""
    index = {tuple(alpha): i for i, alpha in enumerate(_monomials(arity, deg - 1).tolist())}
    betas = _monomials(arity, deg).tolist()
    return np.array(
        [[index.get(tuple(beta[:j] + [beta[j] - 1] + beta[j + 1:]), len(index)) for beta in betas] for j in range(arity)],
        dtype=int,
    ).reshape(arity, -1)
