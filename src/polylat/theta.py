"""Direct and Poisson-transformed evaluation of lattice theta sums.

Theta(Q, P, u, t) = sum over the frame lattice of exp(<l,u>) e^{-tQ(l)} P(l).
The transformed evaluation uses the closed-form Gaussian transform and the
identity Theta = t^{-r/2} pi^{r/2} Disc(Q)^{-1/2} Theta_hat(Qdual, ., u, 1/t)
(the volume is pinned so the direct-side lattice has covolume 1, which is
what makes the Poisson identity hold without stray index factors).

Both sides, and `poisson_check`, sum one Fincke-Pohst ellipsoid of the
shared sums: the direct side the half-lattice paired sum Q(l) <= R plus
P(0), the transformed side the dual sum Qdual(w) <= R about the dual
center of u.  Each radius is the least one whose closed-form Gaussian
tail (`sums._tail`, decay t or pi^2 / t) meets tol, within POINT_BUDGET
points, checked before anything is enumerated.  The tail bounds truncation
only, not the rounding of the sum.
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import BudgetExceeded
from .lattice import SumLattice, ellipsoid_radius
from .polygauss import gaussian_ft
from .sums import _dual_gram, _dual_sum, _dual_tail, _paired_sum, _tail, solve_radius

POINT_BUDGET = 1e7  # points that either side of a theta sum or of poisson_check may visit


@dataclass
class ThetaResult:
    value: np.ndarray
    tail_bound: float
    shells_used: int  # always 1, the one ellipsoid summed: bench/workloads.py reads it
    mode: str

    def scalar(self):
        return complex(self.value[0])


def theta_direct(frame, P, u, t, tol=1e-12, threads=None):
    """Sum over the ellipsoid Q(l) <= R whose Gaussian tail certifies tol."""
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    tail = _direct_tail(frame, P, t)
    R = solve_radius(tail, tol, frame.gram, POINT_BUDGET, "direct theta")
    return ThetaResult(value=_direct_sum(frame, P, u, t, R), tail_bound=float(tail(R)), shells_used=1, mode="direct")


def theta_transformed(frame, P, u, t, tol=1e-12, threads=None):
    """Sum the Poisson-transformed side over the dual points w with
    Qdual(w) <= R, the prefactor-scaled Gaussian tail certifying tol."""
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    gf, prefactor, tail = _transform(frame, P, t)
    R = solve_radius(tail, tol, _dual_gram(frame, gf), POINT_BUDGET, "transformed theta")
    value = prefactor * _transformed_sum(frame, gf, u, t, R, "transformed theta")
    return ThetaResult(value=value, tail_bound=float(tail(R)), shells_used=1, mode="transformed")


def _direct_tail(frame, P, t):
    """R -> the bound on sum over Q(l) > R of |P(l)| e^{-t Q(l)}."""
    return _tail(frame.gram, frame.q_mat, [(alpha, vec, 1.0) for alpha, vec in P.coeffs.items()], 0.0, decay=t)


def _direct_sum(frame, P, u, t, R):
    """sum over Q(l) <= R of chi_l(u) e^{-t Q(l)} P(l), the origin included."""
    return _paired_sum(frame, P, [u], R, lambda q: np.exp(-t * q))[0] + P.value_at_zero()


def _transform(frame, P, t):
    """(gf, prefactor, R -> the prefactor-scaled bound beyond Qdual(w) = R).

    gf is built without the shift: _dual_sum centres each point itself.
    """
    gf = gaussian_ft(P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    prefactor = gf.disc_factor * t**gf.prefactor_exponent
    tail = _dual_tail(frame, gf, lambda m: t**-m, 0.0, decay=math.pi**2 / t)
    return gf, prefactor, lambda R: prefactor * tail(R)


def _transformed_sum(frame, gf, u, t, R, what):
    """sum over Qdual(w) <= R of e^{-pi^2 Qdual(w) / t} poly(w; t), without the prefactor."""
    return _dual_sum(
        frame, gf, [u], R, lambda m, qd: t**-m * np.exp(-(math.pi**2 / t) * qd), lambda m: t**-m,
        budget=POINT_BUDGET, what=what,
    )[0]


def theta_eval(frame, P, u, t, tol=1e-12, mode="auto"):
    """Crossover heuristic: direct for t >= 1, transformed below."""
    if mode == "auto":
        mode = "direct" if t >= 1.0 else "transformed"
    if mode == "direct":
        return theta_direct(frame, P, u, t, tol=tol)
    if mode == "transformed":
        return theta_transformed(frame, P, u, t, tol=tol)
    raise ValueError("mode must be auto, direct or transformed")


def poisson_check(data, P, t, h, r_direct, r_dual, tail_req=1e-12):
    """|LHS - RHS| of the Poisson identity for the Gaussian x polynomial test function.

    LHS sums f(l') = exp(<l',h>) e^{-tQ(l')} P(l') over the dual-lattice
    ellipsoid Q <= r_direct (the direct theta sum); RHS sums the
    closed-form transform over the w = m + h with Qdual(w) <= r_dual (the
    transformed theta sum).  Both tail bounds must certify below tail_req
    and both ellipsoids hold at most POINT_BUDGET points, else
    BudgetExceeded.
    """
    frame = SumLattice.from_abelian(data, side="dual")
    if P.is_zero():
        return 0.0
    gf, prefactor, tail = _transform(frame, P, t)
    tail_direct, tail_dual = _direct_tail(frame, P, t)(r_direct), tail(r_dual)
    if tail_direct > tail_req or tail_dual > tail_req:
        raise BudgetExceeded(
            f"poisson_check: tails {tail_direct:.2e}/{tail_dual:.2e} above {tail_req}"
        )
    for side, gram, R in (("direct", frame.gram, r_direct), ("dual", _dual_gram(frame, gf), r_dual)):
        if R > ellipsoid_radius(gram, POINT_BUDGET):
            raise BudgetExceeded(f"poisson_check: the {side} radius {R:.6g} exceeds {POINT_BUDGET:.3g} points")
    lhs = _direct_sum(frame, P, h, t, r_direct)
    rhs = prefactor * _transformed_sum(frame, gf, h, t, r_dual, "poisson_check (dual side)")
    return float(np.max(np.abs(lhs - rhs)))
