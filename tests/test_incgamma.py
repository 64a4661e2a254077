import math

import mpmath as mp
import numpy as np
import pytest

from polylat.incgamma import exp1, gamma, rgamma, upper_gamma, upper_gamma_bound


def mp_reference(a, x):
    mp.mp.dps = 30
    return complex(mp.gammainc(mp.mpc(a.real, a.imag), x, mp.inf))


@pytest.mark.parametrize("re", [-4.5, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0])
@pytest.mark.parametrize("im", [0.0, -1.3, 0.7, 3.0])
def test_against_mpmath_grid(re, im):
    a = complex(re, im)
    for x in [1e-6, 1e-3, 0.05, 0.3, 1.0, 2.3, 7.0, 25.0, 80.0, 300.0]:
        mine = upper_gamma(a, x)
        ref = mp_reference(a, x)
        assert abs(mine - ref) <= 5e-13 * max(abs(ref), 1e-280), (a, x)


@pytest.mark.parametrize("re", [-4.5, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 6.0])
@pytest.mark.parametrize("im", [0.0, -1.3, 0.7, 3.0])
def test_against_mpmath_grid_array(re, im):
    # one array per order (each regime holding more entries than finish
    # one at a time), straddling x = 1.5 and x = Re(a) + 1 where the
    # regimes change
    a = complex(re, im)
    edges = [1.5, re + 1.0] if re + 1.0 > 0 else [1.5]
    xs = [1e-6, 1e-3, 0.05, 0.3, 1.0, 2.3, 7.0, 25.0, 80.0, 300.0] + list(np.geomspace(0.01, 60.0, 30))
    xs += [e * f for e in edges for f in (1 - 1e-9, 1.0, 1 + 1e-9, 0.9, 1.1)]
    mine = upper_gamma(a, np.array(xs))
    assert mine.shape == (len(xs),)
    for x, val in zip(xs, mine):
        ref = mp_reference(a, x)
        assert abs(val - ref) <= 5e-13 * max(abs(ref), 1e-280), (a, x)
    assert np.all(upper_gamma(a, np.array(xs)[:, None])[:, 0] == mine)


def test_array_order_keeps_shape_and_zero():
    assert upper_gamma(2.5, np.zeros((2, 0))).shape == (2, 0)
    vals = upper_gamma(2.5, np.array([0.0, 1.0]))
    assert abs(vals[0] - math.gamma(2.5)) < 1e-14
    with pytest.raises(ValueError):
        upper_gamma(-1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        upper_gamma(2.0, np.array([1.0, -1.0]))


def test_positive_order_at_zero_is_gamma():
    assert abs(upper_gamma(2.5, 0.0) - math.gamma(2.5)) < 1e-14


def test_negative_order_at_zero_raises():
    with pytest.raises(ValueError):
        upper_gamma(-1.0, 0.0)


def test_recursion_consistency():
    # Gamma(a+1,x) = a Gamma(a,x) + x^a e^{-x}; the two right-hand terms
    # nearly cancel for small x, so tolerance scales with their magnitude
    rng = np.random.default_rng(7)
    for _ in range(40):
        a = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        x = float(10 ** rng.uniform(-4, 2))
        lhs = upper_gamma(a + 1, x)
        t1 = a * upper_gamma(a, x)
        t2 = x**a * math.exp(-x)
        scale = max(abs(lhs), abs(t1) + abs(t2), 1.0)
        assert abs(lhs - (t1 + t2)) <= 1e-12 * scale


def test_recursion_consistency_array():
    # the same identity with each order called once over an array of x
    rng = np.random.default_rng(7)
    xs = 10 ** rng.uniform(-4, 2, 40)
    for _ in range(10):
        a = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        lhs = upper_gamma(a + 1, xs)
        t1 = a * upper_gamma(a, xs)
        t2 = xs**a * np.exp(-xs)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(t1) + np.abs(t2)), 1.0)
        assert np.all(np.abs(lhs - (t1 + t2)) <= 1e-12 * scale), a


def test_bound_is_valid():
    rng = np.random.default_rng(8)
    for _ in range(300):
        p = rng.uniform(-3, 5)
        x = float(10 ** rng.uniform(-2, 2.3))
        val = abs(upper_gamma(complex(p, rng.uniform(-2, 2)), x))
        assert val <= upper_gamma_bound(p, x) * (1 + 1e-12), (p, x)


# Re z in [-10, 15], |Im z| <= 10, plus points within 1e-6 of the poles
_GAMMA_GRID = [
    complex(re, im)
    for re in [x / 4 for x in range(-40, 61)] + [-k + d for k in range(11) for d in (1e-6, -1e-6, 1e-7, -3e-9)]
    for im in [0.0, 1e-7, -1e-6, 0.3, -1.7, 5.0, -10.0, 10.0]
    if not (im == 0.0 and re <= 0 and re == int(re))
]


def test_gamma_and_rgamma_against_mpmath():
    mp.mp.dps = 30
    for z in _GAMMA_GRID:
        ref = mp.gamma(mp.mpc(z.real, z.imag))
        assert abs(gamma(z) - ref) <= 5e-14 * abs(ref), z
        assert abs(rgamma(z) - 1 / ref) <= 5e-14 / abs(ref), z


def test_rgamma_vanishes_at_poles():
    for k in range(12):
        assert rgamma(-k) == 0
        assert rgamma(complex(-k, 0.0)) == 0
        with pytest.raises(ValueError):
            gamma(-k)


def test_exp1_against_mpmath():
    mp.mp.dps = 30
    for x in list(np.geomspace(1e-8, 700.0, 300)) + [1.0, math.nextafter(1.0, 2.0), 1.5]:
        ref = mp.e1(float(x))
        assert abs(exp1(float(x)) - ref) <= 1e-14 * ref, x


def test_exp1_array_matches_scalar():
    xs = np.geomspace(1e-6, 50.0, 97)
    singles = np.array([exp1(float(x)) for x in xs])
    assert np.all(np.abs(exp1(xs) - singles) <= 1e-15 * singles)
