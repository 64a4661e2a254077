"""Direct and Poisson-transformed evaluation of lattice theta sums.

Theta(Q, P, u, t) = sum over the frame lattice of exp(<l,u>) e^{-tQ(l)} P(l).
The transformed evaluation uses the closed-form Gaussian transform and the
identity Theta = t^{-r/2} pi^{r/2} Disc(Q)^{-1/2} Theta_hat(Qdual, ., u, 1/t)
(the volume is pinned so the direct-side lattice has covolume 1, which is
what makes the Poisson identity hold without stray index factors).

Each side sums one Fincke-Pohst ellipsoid of the shared sums: the direct
side the half-lattice paired sum Q(l) <= R plus P(0), the transformed
side the dual sum Qdual(w) <= R about the dual center of u.  Each radius
is the least one whose closed-form Gaussian tail (`sums._tail`, decay t
or pi^2 / t) meets tol, within POINT_BUDGET points, checked before
anything is enumerated.  The tail bounds truncation only, not the
rounding of the sum.
"""

from dataclasses import dataclass
import math

import numpy as np

from .polygauss import gaussian_ft
from .sums import _dual_sum, _dual_tail, _paired_sum, _tail, solve_radius

POINT_BUDGET = 1e7  # points that either side of a theta sum may visit


@dataclass
class ThetaResult:
    value: np.ndarray
    tail_bound: float
    shells_used: int  # always 1, the one ellipsoid summed: bench/workloads.py reads it
    mode: str

    def scalar(self):
        return complex(self.value[0])


def theta_direct(frame, P, u, t, tol=1e-12, threads=None):
    """Sum chi_l(u) e^{-tQ(l)} P(l) over the ellipsoid Q(l) <= R whose
    Gaussian tail certifies tol, the origin included."""
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    tail = _tail(frame.geometry, [(alpha, vec, 1.0) for alpha, vec in P.coeffs.items()], 0.0, decay=t)
    R = solve_radius(tail, tol, frame.geometry, POINT_BUDGET, "direct theta")
    value = _paired_sum(frame, P, [u], R, lambda q: np.exp(-t * q))[0] + P.value_at_zero()
    return ThetaResult(value=value, tail_bound=float(tail(R)), shells_used=1, mode="direct")


def theta_transformed(frame, P, u, t, tol=1e-12, threads=None):
    """Sum the Poisson-transformed side over the dual points w with
    Qdual(w) <= R, the prefactor-scaled Gaussian tail certifying tol.

    gf is built without the shift: _dual_sum centres each point itself.
    """
    # threads is unused: it stays because bench/workloads.py passes threads=1
    if t <= 0 or tol <= 0:
        raise ValueError("t and tol must be positive")
    gf = gaussian_ft(P, frame.q_mat, pairing=frame.pairing, vol_scale=frame.vol_scale)
    prefactor = gf.disc_factor * t**gf.prefactor_exponent
    dual_tail = _dual_tail(frame, gf, lambda m: t**-m, 0.0, decay=math.pi**2 / t)
    tail = lambda R: prefactor * dual_tail(R)
    R = solve_radius(tail, tol, frame.dual_geometry, POINT_BUDGET, "transformed theta")
    value = prefactor * _dual_sum(
        frame, gf, [u], R, lambda m, qd: t**-m * np.exp(-(math.pi**2 / t) * qd), lambda m: t**-m,
        budget=POINT_BUDGET, what="transformed theta",
    )[0]
    return ThetaResult(value=value, tail_bound=float(tail(R)), shells_used=1, mode="transformed")


def theta_eval(frame, P, u, t, tol=1e-12, mode="auto"):
    """Crossover heuristic: direct for t >= 1, transformed below."""
    if mode == "auto":
        mode = "direct" if t >= 1.0 else "transformed"
    if mode == "direct":
        return theta_direct(frame, P, u, t, tol=tol)
    if mode == "transformed":
        return theta_transformed(frame, P, u, t, tol=tol)
    raise ValueError("mode must be auto, direct or transformed")
