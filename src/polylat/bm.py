"""Bochner-Martinelli pullback form: closedness and the unit sphere integral.

beta = F^* K with F(z) = (2z, z) and K the two-variable Bochner-Martinelli
kernel in the difference variables; since w o F = 2z - z = z, the pullback
is the classical one-variable kernel

    beta = (d-1)!/(2*pi*i)^d  sum_j (-1)^{j-1} conj(z_j)/|z|^{2d}
           dconj(z)[j] ^ dz_1 ^ ... ^ dz_d.

The slot order of F into the kernel and the global constant are pinned
jointly by requiring the d = 1 circle integral to equal +1 with the
orientation induced by the fixed choice of i (real coordinates ordered
x1, y1, ..., x_d, y_d).
"""

from dataclasses import dataclass, field
import functools
import itertools
import math

import numpy as np

from .errors import OriginSingularity, QuadratureBudget

# F(z) = (ALPHA z, BETA z); the kernel sees the difference (ALPHA-BETA) z
F_ALPHA = 2.0
F_BETA = 1.0
SLOT_CONVENTION = "F(z)=(2z,z); kernel in (first - second); orientation from i"
# points per block of a dense check grid (about 8 MB of temporaries on the
# S^3 quadrature): the sphere quadrature here and the brute-force current
# oracle of `verify` add one block's partial sum at a time
BLOCK_POINTS = 1 << 14


def _wedge_vectors(vectors, n):
    """Wedge of complex 1-forms given on the real basis; dict subset -> coeff."""
    r = len(vectors)
    out = {}
    mat = np.array(vectors)
    for subset in itertools.combinations(range(n), r):
        minor = mat[:, subset]
        coeff = complex(np.linalg.det(minor))
        if coeff != 0:
            out[subset] = coeff
    return out


@functools.cache
def _kernel_forms(d):
    """Constant exterior parts dconj(w)[j] ^ dw for each j, in real coords."""
    n = 2 * d
    scale = F_ALPHA - F_BETA
    dz = []
    dzbar = []
    for k in range(d):
        v = np.zeros(n, dtype=complex)
        v[2 * k] = scale
        v[2 * k + 1] = 1j * scale
        dz.append(v)
        dzbar.append(v.conj())
    forms = []
    for j in range(d):
        vecs = [dzbar[k] for k in range(d) if k != j] + dz
        forms.append(_wedge_vectors(vecs, n))
    return forms


def _constant(d):
    # the (-1)^{d(d-1)/2} reorders the conjugate/holomorphic wedge factors
    # into the form whose sphere integral is +1 for every d (pinned by the
    # unit-integral requirement; invisible at d = 1)
    return (-1) ** (d * (d - 1) // 2) * math.factorial(d - 1) / (2j * math.pi) ** d


@dataclass
class BMForm:
    """The (2d-1)-form beta with its evaluation callback (d = 1 or 2).

    Coefficients blow up like |z|^{1-2d} near 0, which keeps them locally
    integrable; `integrability_margin` monitors that growth on sample rays.
    """

    d: int
    evaluate: object = field(default=None)

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("only d = 1 and d = 2 are supported")
        if self.evaluate is None:
            self.evaluate = lambda z: beta_eval(self.d, z)

    def integrability_margin(self, direction=None, scales=(1.0, 0.5, 0.25, 0.125)):
        """max over sampled radii of |beta| * |z|^{2d-1}; finite iff integrable."""
        z0 = np.asarray(
            direction if direction is not None else [0.4 + 0.3j] * self.d, dtype=complex
        )
        worst = 0.0
        for s in scales:
            coeffs = self.evaluate(s * z0)
            mag = max(abs(v) for v in coeffs.values())
            radius = float(np.sqrt(np.sum(np.abs(s * z0) ** 2)))
            worst = max(worst, mag * radius ** (2 * self.d - 1))
        return worst


def beta_eval(d, z):
    """Exterior coefficients of beta at z != 0, keyed by sorted real index subsets."""
    z = np.asarray(z, dtype=complex).reshape(d)
    if np.all(z == 0):
        raise OriginSingularity("beta is singular at the origin")
    return {subset: vals[0] for subset, vals in beta_coeff_arrays(d, z[None, :]).items()}


def beta_coeff_arrays(d, zs):
    """Vectorized beta coefficients for an array of points (n, d) complex."""
    zs = np.asarray(zs, dtype=complex)
    w = (F_ALPHA - F_BETA) * zs
    norm2d = np.sum(np.abs(w) ** 2, axis=1) ** d
    forms = _kernel_forms(d)
    c = _constant(d)
    subsets = sorted({s for f in forms for s in f})
    out = {s: np.zeros(zs.shape[0], dtype=complex) for s in subsets}
    for j in range(d):
        factor = c * (-1) ** j * np.conj(w[:, j]) / norm2d
        for subset, coeff in forms[j].items():
            out[subset] += factor * coeff
    return out


def sphere_integral(d, r, quad_level=48):
    """Integral of beta over the sphere |z| = r with the canonical orientation."""
    if not 0 < r < 1:
        raise ValueError("need 0 < r < 1")
    if quad_level < 4 or quad_level > 512:
        raise QuadratureBudget("quad_level outside [4, 512]")
    if d == 1:
        # trapezoid on the circle is spectrally accurate for periodic data
        n = max(quad_level * 4, 32)
        theta = 2 * math.pi * np.arange(n) / n
        zs = (r * np.exp(1j * theta))[:, None]
        coeffs = beta_coeff_arrays(1, zs)
        tangent_x = -r * np.sin(theta)
        tangent_y = r * np.cos(theta)
        integrand = coeffs[(0,)] * tangent_x + coeffs[(1,)] * tangent_y
        return float(np.real(np.sum(integrand) * (2 * math.pi / n)))
    if d == 2:
        return _sphere_integral_d2(r, quad_level)
    raise ValueError("only d = 1 and d = 2 are supported")


def _embed(z1, z2):
    return np.stack(
        [np.real(z1), np.imag(z1), np.real(z2), np.imag(z2)], axis=-1
    )


def _sphere_integral_d2(r, quad_level):
    """Gauss-Legendre x trapezoid quadrature on S^3 in Hopf-like coordinates.

    z = r (cos(alpha) e^{i phi1}, sin(alpha) e^{i phi2}); the grid is taken
    as (alpha, phi1) rows of all phi2 nodes, BLOCK_POINTS points at a time.
    """
    nodes, weights = np.polynomial.legendre.leggauss(quad_level)
    alpha = 0.25 * math.pi * (nodes + 1.0)
    w_alpha = 0.25 * math.pi * weights
    nphi = quad_level * 2
    phi = 2 * math.pi * np.arange(nphi) / nphi
    w_phi = 2 * math.pi / nphi
    cos_a, sin_a, e_phi = np.cos(alpha), np.sin(alpha), np.exp(1j * phi)
    # orientation: outward normal followed by the frame must be positive
    # in the canonical (x1, y1, x2, y2) orientation fixed by i
    mid = len(alpha) // 2
    sample = np.array([r * math.cos(alpha[mid]), 0.0, r * math.sin(alpha[mid]), 0.0])
    normal = sample / np.linalg.norm(sample)
    t_a = np.array([-math.sin(alpha[mid]) * r, 0.0, math.cos(alpha[mid]) * r, 0.0])
    t_p1 = np.array([0.0, r * math.cos(alpha[mid]), 0.0, 0.0])
    t_p2 = np.array([0.0, 0.0, 0.0, r * math.sin(alpha[mid])])
    sign = np.sign(np.linalg.det(np.stack([normal, t_a, t_p1, t_p2])))
    n_rows = len(alpha) * nphi
    step = BLOCK_POINTS // nphi
    total = 0j
    for lo in range(0, n_rows, step):
        ia, i1 = np.divmod(np.arange(lo, min(lo + step, n_rows)), nphi)
        shape = (len(ia), nphi)
        z1 = np.broadcast_to((r * cos_a[ia] * e_phi[i1])[:, None], shape)
        z2 = np.outer(r * sin_a[ia], e_phi)
        coeffs = beta_coeff_arrays(2, np.stack([z1.ravel(), z2.ravel()], axis=1))
        # tangent frame of the parametrization, as real 4-vectors per point
        dz1 = np.broadcast_to((-r * sin_a[ia] * e_phi[i1])[:, None], shape)
        dz2 = np.outer(r * cos_a[ia], e_phi)
        t_alpha = _embed(dz1, dz2).reshape(-1, 4)
        t_phi1 = _embed(1j * z1, np.zeros(shape)).reshape(-1, 4)
        t_phi2 = _embed(np.zeros(shape), 1j * z2).reshape(-1, 4)
        frame = np.stack([t_alpha, t_phi1, t_phi2], axis=1)  # (points, 3, 4)
        value = np.zeros(frame.shape[0], dtype=complex)
        for subset, cvals in coeffs.items():
            minor = frame[:, :, subset]  # (points, 3, 3)
            dets = (
                minor[:, 0, 0] * (minor[:, 1, 1] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 1])
                - minor[:, 0, 1] * (minor[:, 1, 0] * minor[:, 2, 2] - minor[:, 1, 2] * minor[:, 2, 0])
                + minor[:, 0, 2] * (minor[:, 1, 0] * minor[:, 2, 1] - minor[:, 1, 1] * minor[:, 2, 0])
            )
            value += cvals * dets
        total += np.sum(value.reshape(shape) * (w_alpha[ia] * w_phi * w_phi)[:, None])
    return float(sign * np.real(total))


def closedness_residual(d, z, h):
    """Finite-difference norm of d(beta) at z; O(h^2) for centered stencils."""
    z = np.asarray(z, dtype=complex).reshape(d)
    if np.all(z == 0):
        raise OriginSingularity("beta is singular at the origin")
    if h >= float(np.sqrt(np.sum(np.abs(z) ** 2))) / 10:
        raise ValueError("step too large relative to |z|")
    n = 2 * d
    reals = np.stack([z.real, z.imag], axis=1).reshape(n)

    def coeffs_at(xs):
        pts = xs.reshape(-1, 2)
        return beta_eval(d, pts[:, 0] + 1j * pts[:, 1])

    total = 0.0
    full = tuple(range(n))
    for i in range(n):
        subset = tuple(k for k in full if k != i)
        plus = reals.copy()
        plus[i] += h
        minus = reals.copy()
        minus[i] -= h
        deriv = (coeffs_at(plus).get(subset, 0j) - coeffs_at(minus).get(subset, 0j)) / (2 * h)
        # sign of dx^i ^ dx^subset relative to the canonical top form
        pos = i  # i is inserted in front of subset missing exactly index i
        total += (-1) ** pos * deriv
    return abs(total)
