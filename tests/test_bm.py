import math
import tracemalloc

import numpy as np
import pytest

from polylat.bm import _embed, beta_coeff_arrays, beta_eval, closedness_residual, sphere_integral
from polylat.errors import OriginSingularity, QuadratureBudget


def test_d1_circle_integral_unit():
    for r in (0.2, 0.4, 0.6, 0.8):
        assert abs(sphere_integral(1, r, 48) - 1.0) <= 1e-10


def test_d1_matches_closed_form():
    # beta = dz/(2 pi i z): quadrature agrees with the exact value 1
    assert abs(sphere_integral(1, 0.5, 64) - 1.0) <= 1e-12


def test_d2_sphere_integral_unit():
    for r in (0.2, 0.4, 0.6, 0.8):
        assert abs(sphere_integral(2, r, 32) - 1.0) <= 1e-6


def _sphere_integral_d2_one_array(r, quad_level):
    """Reference: the whole S^3 grid as one array, no blocks and no hoisting."""
    nodes, weights = np.polynomial.legendre.leggauss(quad_level)
    alpha = 0.25 * math.pi * (nodes + 1.0)
    w_alpha = 0.25 * math.pi * weights
    nphi = quad_level * 2
    phi = 2 * math.pi * np.arange(nphi) / nphi
    w_phi = 2 * math.pi / nphi
    A, P1, P2 = np.meshgrid(alpha, phi, phi, indexing="ij")
    z1 = r * np.cos(A) * np.exp(1j * P1)
    z2 = r * np.sin(A) * np.exp(1j * P2)
    zs = np.stack([z1.ravel(), z2.ravel()], axis=1)
    coeffs = beta_coeff_arrays(2, zs)
    t_alpha = _embed(-r * np.sin(A) * np.exp(1j * P1), r * np.cos(A) * np.exp(1j * P2)).reshape(-1, 4)
    t_phi1 = _embed(1j * z1, np.zeros_like(z2)).reshape(-1, 4)
    t_phi2 = _embed(np.zeros_like(z1), 1j * z2).reshape(-1, 4)
    frame = np.stack([t_alpha, t_phi1, t_phi2], axis=1)
    value = np.zeros(zs.shape[0], dtype=complex)
    for subset, cvals in coeffs.items():
        minor = frame[:, :, subset]
        dets = (
            minor[:, 0, 0] * (minor[:, 1, 1] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 1])
            - minor[:, 0, 1] * (minor[:, 1, 0] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 0])
            + minor[:, 0, 2] * (minor[:, 1, 0] * minor[:, 2, 1] - minor[:, 1, 1] * minor[:, 2, 0])
        )
        value += cvals * dets
    mid = len(alpha) // 2
    sample = np.array([r * math.cos(alpha[mid]), 0.0, r * math.sin(alpha[mid]), 0.0])
    normal = sample / np.linalg.norm(sample)
    t_a = np.array([-math.sin(alpha[mid]) * r, 0.0, math.cos(alpha[mid]) * r, 0.0])
    t_p1 = np.array([0.0, r * math.cos(alpha[mid]), 0.0, 0.0])
    t_p2 = np.array([0.0, 0.0, 0.0, r * math.sin(alpha[mid])])
    sign = np.sign(np.linalg.det(np.stack([normal, t_a, t_p1, t_p2])))
    weights_grid = (w_alpha[:, None, None] * w_phi * w_phi * np.ones_like(A)).ravel()
    return float(sign * np.real(np.sum(value * weights_grid)))


@pytest.mark.parametrize("quad_level", [8, 32])
def test_d2_blocked_matches_one_array(quad_level):
    # q = 8 is one block, q = 32 eight blocks of 4 alpha nodes
    for r in (0.3, 0.7):
        got = sphere_integral(2, r, quad_level)
        assert abs(got - _sphere_integral_d2_one_array(r, quad_level)) <= 1e-15


def test_d2_memory_stays_bounded():
    # the one-array grid peaks at 513 MB here; blocks hold about 9 MB
    tracemalloc.start()
    try:
        value = sphere_integral(2, 0.4, 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 1.0) <= 1e-6
    assert peak <= 32 * 2**20


def test_d2_radius_independence():
    a = sphere_integral(2, 0.3, 32)
    b = sphere_integral(2, 0.7, 32)
    assert abs(a - b) <= 2e-6


def test_homogeneity():
    for d, z in ((1, np.array([0.3 + 0.2j])), (2, np.array([0.3 + 0.2j, 0.1 - 0.25j]))):
        b1 = beta_eval(d, z)
        b2 = beta_eval(d, z / 2)
        ratio = max(abs(v) for v in b2.values()) / max(abs(v) for v in b1.values())
        assert abs(ratio - 2 ** (2 * d - 1)) < 1e-12


def test_rotation_equivariance_d1():
    # coefficients at e^{i theta} z are the rotation of the frame, theta = pi/2
    z = 0.4 + 0.1j
    b = beta_eval(1, [z])
    br = beta_eval(1, [1j * z])
    # rotation by i maps (dx, dy) -> (-dy, dx); pulled-back coefficients:
    assert abs(br[(0,)] - -b[(1,)]) < 1e-14 or abs(br[(0,)] + b[(1,)]) < 1e-14
    # verify the invariant scalar beta(T) at the rotated tangent agrees
    t = 1j * z  # tangent of the circle at z is i z
    val = b[(0,)] * t.real + b[(1,)] * t.imag
    t2 = 1j * (1j * z)
    val2 = br[(0,)] * t2.real + br[(1,)] * t2.imag
    assert abs(val - val2) < 1e-14


def test_local_integrability_monitor():
    # |beta| = O(|z|^{1-2d}) along rays
    from polylat.bm import BMForm

    for d in (1, 2):
        z0 = np.array([0.5 + 0.3j, -0.2 + 0.4j])[:d]
        for s in (1.0, 0.5, 0.25, 0.125):
            coeffs = beta_eval(d, s * z0)
            mag = max(abs(v) for v in coeffs.values())
            expect = s ** (1 - 2 * d)
            assert mag <= 10 * expect / min(np.abs(z0)) ** (2 * d - 1)
        form = BMForm(d)
        margin = form.integrability_margin(direction=z0)
        assert np.isfinite(margin) and margin < 10.0


def test_origin_singularity():
    with pytest.raises(OriginSingularity):
        beta_eval(2, [0.0, 0.0])
    with pytest.raises(OriginSingularity):
        closedness_residual(1, [0.0], 1e-3)


def test_quad_budget():
    with pytest.raises(QuadratureBudget):
        sphere_integral(1, 0.5, 2)


def test_closedness_second_order():
    z1 = [0.5 + 0.0j]
    r1 = closedness_residual(1, z1, 1e-2)
    r2 = closedness_residual(1, z1, 5e-3)
    assert 3.5 <= r1 / r2 <= 4.5
    z2 = [0.42 + 0.42j, 0.42 - 0.42j]  # |z| = 0.84 on a random-ish direction
    r1 = closedness_residual(2, z2, 1e-3)
    r2 = closedness_residual(2, z2, 5e-4)
    assert 3.5 <= r1 / r2 <= 4.5
    assert closedness_residual(2, z2, 1e-3) <= 1e-5


def test_closedness_scaling_consistency():
    # residual(2z, 2h) = 2^{-2d} residual(z, h) by homogeneity
    z = np.array([0.25 + 0.1j, -0.3 + 0.15j])
    r_scaled = closedness_residual(2, 2 * z, 2e-2)
    r_base = closedness_residual(2, z, 1e-2)
    assert abs(r_scaled / r_base - 2.0 ** (-4)) < 0.02 * 2.0 ** (-4)


def test_step_guard():
    with pytest.raises(ValueError):
        closedness_residual(1, [0.1 + 0j], 0.05)
