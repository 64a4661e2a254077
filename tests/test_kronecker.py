"""Kronecker's second limit formula against the accelerated lattice zeta.

For the curve C / (Z + Z tau), the zeta sum of the dual frame at s = 1,
P = 1 and a point u off the zero section is

    -log |theta_1(pi z, e^{pi i tau}) / eta(tau)|^2 + 2 pi (Im z)^2 / Im tau,

z = u_1 + u_2 tau.  The closed form is taken in mpmath at 30 digits, an
engine that shares nothing with the lattice sums.
"""

from fractions import Fraction

import mpmath as mp
import pytest

from polylat import PolarizedAbelianData, SumLattice
from polylat.currents import g_grade
from polylat.polygauss import VectorPolynomial
from polylat.zeta import kzeta_accelerated

TAUS = [
    (Fraction(1, 4), Fraction(5, 4)),
    (Fraction(0), Fraction(1)),
    (Fraction(1, 2), Fraction(3, 10)),
    (Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(1, 3), Fraction(2)),
]
TAU_IDS = [f"{x}+{y}i" for x, y in TAUS]
POINTS = [(1 / 3, 0.0), (0.1, 0.25), (0.4, 0.7), (0.5, 0.5), (0.85, 0.15), (0.0, 0.3)]


def kronecker(tau_re, tau_im, u):
    """The closed form above, as a float."""
    with mp.workdps(30):
        tau = mp.mpc(mp.mpf(tau_re.numerator) / tau_re.denominator, mp.mpf(tau_im.numerator) / tau_im.denominator)
        z = u[0] + u[1] * tau
        eta = mp.exp(1j * mp.pi * tau / 12) * mp.qp(mp.exp(2j * mp.pi * tau))
        theta1 = mp.jtheta(1, mp.pi * z, mp.exp(1j * mp.pi * tau))
        return float(-mp.log(abs(theta1 / eta) ** 2) + 2 * mp.pi * mp.im(z) ** 2 / mp.im(tau))


def zeta_at_one(data, u):
    frame = SumLattice.from_abelian(data, "dual")
    return kzeta_accelerated(frame, VectorPolynomial.constant(1.0, 2), list(u), 1.0, tol=1e-13).scalar()


@pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
def test_second_limit_formula(tau):
    data = PolarizedAbelianData.from_tau(*tau)
    for u in POINTS:
        assert abs(zeta_at_one(data, u) - kronecker(*tau, u)) <= 1e-12, u


@pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
def test_index_four_doubles_the_value(tau):
    # e_scale = 2 scales E by 2: the dual frame's sum at u is twice the closed form
    data = PolarizedAbelianData.from_tau(*tau, e_scale=2)
    for u in POINTS:
        assert abs(zeta_at_one(data, u) - 2 * kronecker(*tau, u)) <= 1e-12, u


@pytest.mark.parametrize("tau", TAUS, ids=TAU_IDS)
def test_grade_two_current_is_minus_half(tau):
    data = PolarizedAbelianData.from_tau(*tau)
    for u in POINTS:
        expect = -0.5 * kronecker(*tau, u)
        for word, value in g_grade(data, u, 2, tol=1e-13).components.items():
            assert abs(value - expect) <= 1e-12, (u, word)
