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
from .lattice import SumLattice, box_shell, enumerate_shell
from .polygauss import VectorPolynomial, gaussian_ft
from .sums import CompensatedSum, certified_sum, gaussian_tail

DEFAULT_SHELL_CAP = 220


@dataclass(frozen=True)
class ThetaSpec:
    """Inputs of one theta evaluation over an abelian frame."""

    data: object
    lattice_side: str  # 'primal' or 'dual'
    P: VectorPolynomial
    u: tuple
    t: float

    def frame(self):
        return SumLattice.from_abelian(self.data, side=self.lattice_side)


@dataclass
class ThetaResult:
    value: np.ndarray
    tail_bound: float
    shells_used: int
    mode: str

    def scalar(self):
        return complex(self.value[0])


def _direct_tail(frame, P, t):
    """Gaussian tail bound beyond shell k of the direct theta sum."""
    coeff = P.coeff_l1()
    growth = frame.basis_norm * math.sqrt(frame.rank)
    return lambda k: gaussian_tail(
        k, rank=frame.rank, sigma=frame.sigma_min, decay=t, coeff=coeff, deg=P.degree, growth=growth
    )


def theta_direct(frame, P, u, t, tol=1e-12, shell_cap=DEFAULT_SHELL_CAP, threads=None):
    """Shell-by-shell direct summation with a rigorous Gaussian tail bound."""
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    h = frame.reduce_point(u)
    phase = frame.phase_data(u)

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

    value, bound, shells = certified_sum(
        partial, _direct_tail(frame, P, t), tol, P.target_dim,
        what="direct theta", shell_cap=shell_cap, threads=threads,
    )
    return ThetaResult(value=value, tail_bound=bound, shells_used=shells, mode="direct")


def _transformed_side(frame, P, h, t):
    """Poisson-transformed side at reduced shift h.

    Returns (prefactor, dual frame, gf, partial, tail): partial(k) sums
    the transform over dual shell k without the prefactor, tail(k) bounds
    the prefactor-scaled remainder beyond shell k.
    """
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

    return prefactor, dual, gf, partial, tail


def theta_transformed(frame, P, u, t, tol=1e-12, shell_cap=DEFAULT_SHELL_CAP, threads=None):
    """Evaluate the Poisson-transformed side of the theta sum."""
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    prefactor, _dual, _gf, partial, tail = _transformed_side(frame, P, frame.reduce_point(u), t)
    value, bound, shells = certified_sum(
        partial, tail, tol, P.target_dim,
        what="transformed theta", shell_cap=shell_cap, threads=threads,
    )
    return ThetaResult(value=prefactor * value, tail_bound=bound, shells_used=shells, mode="transformed")


def theta_eval(frame, P, u, t, tol=1e-12, mode="auto", threads=None):
    """Crossover heuristic: direct for t >= 1, transformed below."""
    if mode == "auto":
        mode = "direct" if t >= 1.0 else "transformed"
    if mode == "direct":
        return theta_direct(frame, P, u, t, tol=tol, threads=threads)
    if mode == "transformed":
        return theta_transformed(frame, P, u, t, tol=tol, threads=threads)
    raise ValueError("mode must be auto, direct or transformed")


def poisson_check(data, P, t, h, r_direct, r_dual, tail_req=1e-12):
    """|LHS - RHS| of the Poisson identity for the Gaussian x polynomial test function.

    LHS sums f(l') = exp(<l',h>) e^{-tQ(l')} P(l') over the dual-lattice ball
    Q <= r_direct; RHS sums the closed-form transform over the base-lattice
    ball.  Both truncation tails must certify below tail_req.
    """
    frame = SumLattice.from_abelian(data, side="dual")
    if P.is_zero():
        return 0.0
    h = frame.reduce_point(h)
    # direct side
    ms = enumerate_shell(frame, r_direct)
    pts = frame.points(ms)
    weights = frame.char_values(ms, h) * np.exp(-t * frame.q_values(ms))
    lhs = (P.evaluate_many(pts) * weights[:, None]).sum(axis=0) + P.value_at_zero()
    k_direct = int(math.floor(math.sqrt(r_direct / (frame.sigma_max * frame.rank))))
    tail_direct = _direct_tail(frame, P, t)(k_direct)
    # transformed side, summed out to the fixed dual radius r_dual
    prefactor, dual, gf, partial, tail = _transformed_side(frame, P, h, t)
    gram_min = float(np.linalg.eigvalsh(dual.basis.T @ gf.dual_form @ dual.basis)[0])
    k_dual = 0
    rhs_acc = CompensatedSum(P.target_dim)
    while True:
        rhs_acc.add(partial(k_dual))
        if k_dual * k_dual * gram_min > r_dual:
            break
        k_dual += 1
        if k_dual > DEFAULT_SHELL_CAP:
            raise BudgetExceeded("poisson_check: dual radius too large")
    tail_dual = tail(k_dual)
    if tail_direct > tail_req or tail_dual > tail_req:
        raise BudgetExceeded(
            f"poisson_check: tails {tail_direct:.2e}/{tail_dual:.2e} above {tail_req}"
        )
    rhs = prefactor * rhs_acc.value
    return float(np.max(np.abs(lhs - rhs)))
