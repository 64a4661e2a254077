"""Direct and Poisson-transformed evaluation of lattice theta sums.

Theta(Q, P, u, t) = sum over the frame lattice of exp(<l,u>) e^{-tQ(l)} P(l).
The transformed evaluation uses the closed-form Gaussian transform and the
identity Theta = t^{-r/2} pi^{r/2} Disc(Q)^{-1/2} Theta_hat(Qdual, ., u, 1/t)
(the volume is pinned so the direct-side lattice has covolume 1, which is
what makes the Poisson identity hold without stray index factors).
"""

from dataclasses import dataclass
import math

import numpy as np

from .errors import BudgetExceeded
from .lattice import SumLattice, box_shell, ellipsoid_radius
from .polygauss import gaussian_ft
from .sums import _dual_gram, _dual_sum, _dual_tail, _paired_sum, _tail, certified_sum, gaussian_tail

DEFAULT_SHELL_CAP = 220
POISSON_POINT_BUDGET = 1e7  # points that either side of poisson_check may visit


@dataclass
class ThetaResult:
    value: np.ndarray
    tail_bound: float
    shells_used: int
    mode: str

    def scalar(self):
        return complex(self.value[0])


def theta_direct(frame, P, u, t, tol=1e-12, shell_cap=DEFAULT_SHELL_CAP, threads=None):
    """Shell-by-shell direct summation with a rigorous Gaussian tail bound."""
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    h = frame.reduce_point(u)
    phase = frame.phase_data(u)
    coeff, growth = P.coeff_l1(), frame.basis_norm * math.sqrt(frame.rank)

    def partial(k):
        ms = box_shell(frame.rank, k)
        pts = frame.points(ms)
        chi = (
            frame.char_values(ms, h)
            if phase is None
            else frame.char_values_exact(ms, *phase)
        )
        weights = chi * np.exp(-t * frame.q_values(ms))
        return (P.evaluate_many(pts) * weights[:, None]).sum(axis=0)

    def tail(k):
        return gaussian_tail(
            k, rank=frame.rank, sigma=frame.sigma_min, decay=t, coeff=coeff, deg=P.degree, growth=growth
        )

    value, bound, shells = certified_sum(partial, tail, tol, P.target_dim, what="direct theta", shell_cap=shell_cap)
    return ThetaResult(value=value, tail_bound=bound, shells_used=shells, mode="direct")


def theta_transformed(frame, P, u, t, tol=1e-12, shell_cap=DEFAULT_SHELL_CAP, threads=None):
    """Evaluate the Poisson-transformed side of the theta sum.

    The transform is summed over the dual shells at the reduced shift h,
    without the prefactor; the tail bounds the prefactor-scaled remainder
    beyond each shell.
    """
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    h = frame.reduce_point(u)
    gf = gaussian_ft(P, frame.q_mat, h=h, pairing=frame.pairing, vol_scale=frame.vol_scale)
    dual = frame.dual_frame()
    prefactor = gf.disc_factor * t**gf.prefactor_exponent
    decay = math.pi**2 / t
    qd_sigma = float(np.linalg.eigvalsh(gf.dual_form)[0]) - 1e-12
    h_norm = float(np.linalg.norm(h))
    # Laurent-in-t coefficient magnitudes, evaluated at this t
    coeff = float(
        sum(np.max(np.abs(v)) * t ** (-m) for (_a, m), v in gf.poly.items())
    ) if gf.poly else 0.0
    deg = gf.poly_degree()
    growth = dual.basis_norm * math.sqrt(dual.rank)

    def partial(k):
        ms = box_shell(dual.rank, k)
        ws = dual.points(ms) + h
        qd = np.einsum("ij,jk,ik->i", ws, gf.dual_form, ws)
        vals = gf.poly_eval_many(ws, t) * np.exp(-decay * qd)[:, None]
        return vals.sum(axis=0)

    def tail(k):
        return prefactor * gaussian_tail(
            k,
            rank=dual.rank,
            sigma=qd_sigma * dual.basis_smin**2,
            decay=decay,
            coeff=coeff,
            deg=deg,
            growth=growth,
            rho_shift=h_norm / dual.basis_smin,
            amp_shift=h_norm,
        )

    value, bound, shells = certified_sum(
        partial, tail, tol, P.target_dim, what="transformed theta", shell_cap=shell_cap
    )
    return ThetaResult(value=prefactor * value, tail_bound=bound, shells_used=shells, mode="transformed")


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
    ellipsoid Q <= r_direct (the paired sum, plus P(0)); RHS sums the
    closed-form transform over the w = m + h with Qdual(w) <= r_dual (the
    dual sum about -h, plus the w = 0 term when h is on the zero section).
    Both power_tail bounds must certify below tail_req and both ellipsoids
    hold at most POISSON_POINT_BUDGET points, else BudgetExceeded.
    """
    frame = SumLattice.from_abelian(data, side="dual")
    if P.is_zero():
        return 0.0
    gf = gaussian_ft(P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    prefactor = gf.disc_factor * t**gf.prefactor_exponent
    direct = [(alpha, vec, 1.0) for alpha, vec in P.coeffs.items()]
    tail_direct = _tail(frame.gram, frame.q_mat, direct, 0.0, decay=t)(r_direct)
    tail_dual = prefactor * _dual_tail(frame, gf, lambda m: t**-m, 0.0, decay=math.pi**2 / t)(r_dual)
    if tail_direct > tail_req or tail_dual > tail_req:
        raise BudgetExceeded(
            f"poisson_check: tails {tail_direct:.2e}/{tail_dual:.2e} above {tail_req}"
        )
    for side, gram, R in (("direct", frame.gram, r_direct), ("dual", _dual_gram(frame, gf), r_dual)):
        if R > ellipsoid_radius(gram, POISSON_POINT_BUDGET):
            raise BudgetExceeded(f"poisson_check: the {side} radius {R:.6g} exceeds {POISSON_POINT_BUDGET:.3g} points")
    lhs = _paired_sum(frame, P, [h], r_direct, lambda q: np.exp(-t * q))[0] + P.value_at_zero()
    rhs = _dual_sum(
        frame, gf, [h], r_dual, lambda m, qd: t**-m * np.exp(-(math.pi**2 / t) * qd), lambda m: t**-m,
        budget=POISSON_POINT_BUDGET, what="poisson_check (dual side)",
    )[0]
    return float(np.max(np.abs(lhs - prefactor * rhs)))
