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
            alpha = tuple(int(a) for a in alpha)
            if len(alpha) != self.arity or any(a < 0 for a in alpha):
                raise ArityMismatch(f"bad multi-index {alpha}")
            v = np.atleast_1d(np.asarray(vec, dtype=complex))
            if v.shape != (self.target_dim,):
                raise ArityMismatch("coefficient vector has wrong dimension")
            if np.any(v != 0):
                self.coeffs[alpha] = v
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
        lam = np.asarray(lam, dtype=complex)
        if lam.shape != (self.arity,):
            raise ArityMismatch(f"expected {self.arity} coordinates, got {lam.shape}")
        out = np.zeros(self.target_dim, dtype=complex)
        for alpha, vec in self.coeffs.items():
            out += vec * np.prod(lam**np.array(alpha))
        return out

    def evaluate_many(self, pts):
        """Vectorized evaluation; pts is (n, arity), result (n, target_dim)."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros((pts.shape[0], self.target_dim), dtype=complex)
        for alpha, vec in self.coeffs.items():
            mono = np.ones(pts.shape[0])
            for j, a in enumerate(alpha):
                if a:
                    mono = mono * pts[:, j] ** a
            out += mono[:, None] * vec[None, :]
        return out

    def value_at_zero(self):
        return self.coeffs.get((0,) * self.arity, np.zeros(self.target_dim, dtype=complex))

    def coeff_l1(self):
        """Sum of coefficient magnitudes, componentwise max (tail bounds)."""
        if not self.coeffs:
            return 0.0
        return float(sum(np.max(np.abs(v)) for v in self.coeffs.values()))

    def is_zero(self):
        return not self.coeffs


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

    def poly_eval(self, w, t):
        w = np.asarray(w, dtype=float)
        out = np.zeros(self.target_dim, dtype=complex)
        for (alpha, m), vec in self.poly.items():
            out += vec * np.prod(w**np.array(alpha)) * t ** (-m)
        return out

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
        for (alpha, m), vec in self.poly.items():
            mono = np.ones(ws.shape[0])
            for j, a in enumerate(alpha):
                if a:
                    mono = mono * ws[:, j] ** a
            out += (mono * t ** (-m))[:, None] * vec[None, :]
        return out

    def monomials_by_tpower(self):
        """Map m -> list of (alpha, coeff vector); used by the Mellin split."""
        out = {}
        for (alpha, m), vec in self.poly.items():
            out.setdefault(m, []).append((alpha, vec))
        return dict(sorted(out.items()))

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
    poly = {}

    def add(alpha, m_pow, vec):
        key = (alpha, m_pow)
        cur = poly.get(key)
        poly[key] = vec.copy() if cur is None else cur + vec

    for alpha, cvec in P.coeffs.items():
        # P term: cvec * prod_j x_j^{alpha_j}; expand (y + x0)^alpha
        ranges = [range(a + 1) for a in alpha]
        for beta in itertools.product(*ranges):
            # y^beta picked, x0^{alpha-beta} remaining
            if sum(beta) % 2 == 1:
                continue
            gamma = tuple(a - bb for a, bb in zip(alpha, beta))
            binom = 1.0
            for a, bb in zip(alpha, beta):
                binom *= math.comb(a, bb)
            mom = moments[beta]
            if mom == 0.0:
                continue
            half = sum(beta) // 2
            gauss_coef = binom * mom / (2.0**half)
            x0_coef = (math.pi * 1j) ** sum(gamma)
            t_pow = half + sum(gamma)
            # expand (dmat @ w)^gamma into monomials of w
            for walpha, wcoef in _expand_linear_power(dmat, gamma).items():
                vec = cvec * (gauss_coef * x0_coef * wcoef)
                if np.any(vec != 0):
                    add(walpha, t_pow, vec)

    poly = {k: v for k, v in poly.items() if np.max(np.abs(v)) > 0.0}
    return GaussPolyFactor(
        dual_form=qdual,
        shift=h,
        prefactor_exponent=-r / 2.0,
        disc_factor=disc,
        poly=poly,
        target_dim=P.target_dim,
    )


def _expand_linear_power(dmat, gamma):
    """Expand prod_j (dmat[j] . w)^{gamma_j} into w-monomials."""
    r = dmat.shape[0]
    acc = {(0,) * r: 1.0}
    for j, g in enumerate(gamma):
        for _ in range(g):
            nxt = {}
            for walpha, coef in acc.items():
                for k in range(r):
                    if dmat[j, k] == 0.0:
                        continue
                    na = list(walpha)
                    na[k] += 1
                    na = tuple(na)
                    nxt[na] = nxt.get(na, 0.0) + coef * dmat[j, k]
            acc = nxt
    return acc
