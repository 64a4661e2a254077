"""Summation frames on polarized lattices: Hodge split, Q, characters, ellipsoids.

The exact polarized data (J, E), its dual lattice and the pairing
conventions live in `polarized`, which needs no numpy; they are
re-exported here.  This module is where floats enter: summation frames,
the factors of their Gram matrices and the Fincke-Pohst ellipsoid
enumeration.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math

import numpy as np

from . import ratlin
from .errors import ConventionViolation, NotInDualLattice, ShellTooLarge
# DualLattice and PolarizedAbelianData are re-exported: callers import them from here
from .polarized import DualLattice, PolarizedAbelianData, _to_float_matrix, dual_lattice
from .polygauss import dual_form

SNAP_TOL = 1e-12  # floats this close to a lattice point are snapped onto it


@dataclass(frozen=True)
class HodgeVector:
    """Components of a vector under the (-1,0) / (0,-1) eigensplit of J."""

    minus10: np.ndarray
    zero_minus1: np.ndarray


def hodge_split(data, lam):
    """Split a real vector as l = l^{-1,0} + l^{0,-1} along the J-eigenspaces."""
    v = np.asarray(lam, dtype=complex)
    jv = data.j_float() @ v
    minus10 = (v - 1j * jv) / 2
    zero_minus1 = (v + 1j * jv) / 2
    return HodgeVector(minus10=minus10, zero_minus1=zero_minus1)


def q_form(data, lam):
    """Q(l) = <l^{-1,0}, l^{0,-1}> = pi * E(Jl, l), positive for l != 0."""
    v = np.asarray(lam, dtype=float)
    val = math.pi * float(v @ _to_float_matrix(data.q_matrix_rat) @ v)
    if val < 0 and not np.allclose(v, 0):
        raise ConventionViolation("negative Q value: J/E convention mismatch")
    return val


def character(data, lam_dual, u):
    """chi_{l'}(u) = exp(2*pi*i*E(l', u)); requires l' in the dual lattice."""
    lam = [ratlin.as_fraction(x) if not isinstance(x, float) else x for x in lam_dual]
    ef = ratlin.frac_matrix(data.E)
    # membership: E^T l' must be integral
    if all(isinstance(x, Fraction) for x in lam):
        pair = ratlin.mat_vec(ratlin.transpose(ef), lam)
        if any(p.denominator != 1 for p in pair):
            raise NotInDualLattice(f"{lam_dual} is not in the dual lattice")
    else:
        pair = data.e_float().T @ np.asarray(lam_dual, dtype=float)
        if np.max(np.abs(pair - np.round(pair))) > SNAP_TOL:
            raise NotInDualLattice(f"{lam_dual} is not in the dual lattice")
    phase = float(np.asarray(lam_dual, dtype=float) @ data.e_float() @ np.asarray(u, dtype=float))
    return complex(np.exp(2j * np.pi * (phase - math.floor(phase))))


# ---------------------------------------------------------------------------
# summation frames


class SumLattice:
    """A lattice presented for summation: integer coordinates + geometry.

    Holds everything the theta/zeta engines need: ambient basis V
    (columns are generators), ambient quadratic form matrix M with
    Q(x) = x^T M x, ambient pairing B for characters, the pairing-dual
    lattice basis, and the volume normalization that makes this frame's
    covolume equal 1 (the Poisson identity is exact in that volume).
    `geometry` and `dual_geometry` hold the Gram factors of the direct
    sums and of the dual sums, computed once per frame.
    """

    def __init__(self, basis, q_mat, pairing, dual_basis, data=None):
        self.basis = np.asarray(basis, dtype=float)
        self.q_mat = np.asarray(q_mat, dtype=float)
        self.pairing = np.asarray(pairing, dtype=float)
        self.dual_basis = np.asarray(dual_basis, dtype=float)
        self.data = data
        self.rank = self.basis.shape[0]
        self.gram = self.basis.T @ self.q_mat @ self.basis
        self.char_mat = self.basis.T @ self.pairing
        evals = np.linalg.eigvalsh(0.5 * (self.gram + self.gram.T))
        if evals[0] <= 0:
            raise ConventionViolation("summation Gram matrix is not positive definite")
        self.sigma_max = float(evals[-1]) + 1e-10
        self.vol_scale = 1.0 / abs(np.linalg.det(self.basis))
        # the dual points w = V x, V the dual basis, have Qdual(w) = x^T V^T dual_form V x
        self.dual_form = dual_form(self.q_mat, self.pairing)
        self.geometry = Geometry(self.gram, self.q_mat)
        self.dual_geometry = Geometry(self.dual_basis.T @ self.dual_form @ self.dual_basis, self.dual_form)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_abelian(cls, data, side="dual"):
        """Frame for the lattice (side='primal') or its 2*pi*i-dual."""
        n = data.rank
        b = data.e_float()
        q = data.q_matrix()
        eye = np.eye(n)
        dual = dual_lattice(data)
        w = _to_float_matrix([[float(dual.basis[j][i]) for j in range(n)] for i in range(n)])
        if side == "dual":
            return cls(basis=w, q_mat=q, pairing=b, dual_basis=eye, data=data)
        if side == "primal":
            return cls(basis=eye, q_mat=q, pairing=b, dual_basis=w, data=data)
        raise ValueError("side must be 'primal' or 'dual'")

    @classmethod
    def euclidean(cls, rank, q_mat=None):
        """Z^rank with pairing x.p, self-dual; Q defaults to |x|^2."""
        eye = np.eye(rank)
        q = eye if q_mat is None else np.asarray(q_mat, dtype=float)
        return cls(basis=eye, q_mat=q, pairing=eye, dual_basis=eye)

    # -- pointwise geometry --------------------------------------------------

    def points(self, ms):
        return np.asarray(ms, dtype=float) @ self.basis.T

    def q_values(self, ms):
        m = np.asarray(ms, dtype=float)
        return np.einsum("ij,jk,ik->i", m, self.gram, m)

    def char_values(self, ms, u):
        """exp(2*pi*i*E(l, u)) for each integer coordinate row of ms (one
        column per point when u is a matrix whose columns are points)."""
        phases = np.asarray(ms, dtype=float) @ (self.char_mat @ np.asarray(u, dtype=float))
        phases -= np.floor(phases)
        return np.exp(2j * np.pi * phases)

    def phase_data(self, u):
        """(numerators, denominator) for exact characters at rational u.

        Available when u is given in Fractions and the character matrix is
        integral (true for all frames built here): the phase of each
        character is then an exact root of unity computed in integers and
        floated only at the end.
        """
        if not all(isinstance(x, Fraction) for x in u):
            return None
        cm = np.round(self.char_mat)
        if np.max(np.abs(self.char_mat - cm)) > 1e-12:
            return None
        den = 1
        for x in u:
            den = den * x.denominator // math.gcd(den, x.denominator)
        nums = [int((x % 1) * den) for x in u]
        v = cm.astype(np.int64) @ np.array(nums, dtype=np.int64)
        return v, den

    def char_values_exact(self, ms, v, den):
        """Characters as exact den-th roots of unity (integer phases mod den)."""
        phases = (np.asarray(ms, dtype=np.int64) @ v) % den
        return np.exp((2j * np.pi / den) * phases)

    def reduce_point(self, u):
        """Reduce an ambient point mod Z^rank; exact for Fraction input."""
        if any(isinstance(x, Fraction) for x in u):
            return np.array(
                [float(ratlin.as_fraction(x) % 1) for x in u], dtype=float
            )
        v = np.asarray(u, dtype=float)
        return v - np.floor(v)

    def dual_centers(self, us):
        """Row k: c_k = -V^{-1} h_k, h_k the reduced point of us[k] and V the
        dual basis.  The dual points of u_k are w = V (m - c_k), m integral."""
        hs = np.array([self.reduce_point(u) for u in us])
        return -np.linalg.solve(self.dual_basis, hs.T).T

    @cached_property
    def torus_geometry(self):
        """The Geometry of V^T V, V the dual basis: |V x|^2 = x^T V^T V x."""
        return Geometry(self.dual_basis.T @ self.dual_basis)

    def on_zero_section(self, us):
        """Row k: True when every character chi_l(us[k]) is 1, that is when
        the dual center c_k is integral within SNAP_TOL per coordinate (u in
        Z^rank on dual and Euclidean frames, in the dual lattice on primal
        ones).  Then one dual point is w = 0."""
        c = self.dual_centers(us)
        return np.all(np.abs(c - np.round(c)) < SNAP_TOL, axis=1)


# box_shell is unused: it stays because bench/tracing.py wraps it
def box_shell(rank, k):
    """Integer vectors with sup-norm exactly k, in a fixed deterministic order."""
    if k == 0:
        return np.zeros((1, rank), dtype=np.int64)
    pieces = []
    # decompose by the first coordinate with |m_i| = k
    for i in range(rank):
        pre = [np.arange(-(k - 1), k, dtype=np.int64)] * i
        post = [np.arange(-k, k + 1, dtype=np.int64)] * (rank - 1 - i)
        for sign in (-k, k):
            dims = pre + [np.array([sign], dtype=np.int64)] + post
            mesh = np.meshgrid(*dims, indexing="ij")
            pieces.append(np.stack([m.ravel() for m in mesh], axis=1))
    shell = np.vstack(pieces)
    order = np.lexsort(shell.T[::-1])
    return shell[order]


# shell_point_count is used only by sums.gaussian_tail, which stays for bench/tracing.py
def shell_point_count(rank, k):
    if k == 0:
        return 1
    return (2 * k + 1) ** rank - (2 * k - 1) ** rank


class Geometry:
    """The constants of one positive definite Gram matrix G, computed once.

    `upper` is the upper triangular factor of G = upper upper^T, `sqrt_det`
    = sqrt(det G), `cell_radius` the D of G (see cell_radius) and `lam_min`
    the least eigenvalue of the ambient form, the one with y^T form y = Q(m)
    at the point y of m (G itself by default): |y|^2 <= Q(m) / lam_min.
    """

    def __init__(self, gram, form=None):
        self.gram = np.asarray(gram, dtype=float)
        self.rank = len(self.gram)
        self.upper = np.linalg.cholesky(self.gram[::-1, ::-1])[::-1, ::-1]
        self.sqrt_det = math.sqrt(np.linalg.det(self.gram))
        self.cell_radius = cell_radius(self.gram)
        self.lam_min = float(np.linalg.eigvalsh(self.gram if form is None else form)[0])


def ellipsoid_radius(geom, points):
    """The largest R for which V_r (sqrt(R) + D)^r / sqrt(det G) <= points.

    D is the geometry's cell_radius.  The disjoint unit cells of the m with
    Q(m) <= R lie inside sqrt(Q) <= sqrt(R) + D, so that ellipsoid holds at
    most `points` of them.
    """
    r = geom.rank
    ball = math.pi ** (r / 2) / math.gamma(r / 2 + 1)
    rho = (points * geom.sqrt_det / ball) ** (1 / r) - geom.cell_radius
    return max(rho, 0.0) ** 2


def cell_radius(gram):
    """max sqrt(Q) over the corners of the cell [-1/2, 1/2]^r: every point of
    the cell around m lies within it of m in the norm sqrt(Q)."""
    corners = np.array(list(np.ndindex(*(2,) * len(gram)))) - 0.5
    return float(np.sqrt(np.max(np.einsum("ij,jk,ik->i", corners, gram, corners))))


def ellipsoid_chunks(geom, R, *, center=None, half=False, coords=True, chunk=1 << 16):
    """Fincke-Pohst enumeration of the integer m with Q(m - c) <= R, Q(x) = x^T G x,
    G the Gram matrix of `geom` (a Geometry).

    c is `center` (default the origin).  Yields (ms, q) in lexicographic
    order of m, at most `chunk` points at a time: the integer rows (None if
    not coords, to save their cost) and their values Q(m - c).  Every point
    with Q(m - c) <= R is emitted (bounds carry a 1e-9 relative margin for
    rounding), perhaps with a few just outside.  With half=True (and no
    center) the first nonzero coordinate is > 0: one point of each pair
    +-m, never the origin.

    With G = U U^T, U = geom.upper, Q(x) = sum_i (sum_{j<=i} U_ji x_j)^2
    and the i-th term depends on x_0..x_i only, so each prefix m_0..m_{i-1}
    confines m_i to an interval; every level is streamed in pieces of at
    most `chunk` points.
    """
    upper = geom.upper
    ctr = np.zeros(len(upper)) if center is None else np.asarray(center, dtype=float)
    R = R * (1 + 1e-9)

    def extend(pre, part):  # prefixes with their partial sums of Q, one coordinate more
        k = pre.shape[1]
        last = k + 1 == len(upper)
        diag = upper[k, k]
        shift = (pre - ctr[:k]) @ upper[:k, k] - diag * ctr[k]
        mid = -shift / diag
        width = np.sqrt(np.maximum(R - part, 0.0)) / diag + 1e-9 * (1.0 + np.abs(mid))
        lo = np.ceil(mid - width)
        if half:
            zero = ~pre.any(axis=1)
            lo[zero] = np.maximum(lo[zero], 1.0 if last else 0.0)
        cnt = np.maximum(np.floor(mid + width) - lo + 1, 0).astype(np.int64)
        ends = np.cumsum(cnt)
        starts = ends - cnt
        base = diag * lo + shift  # the k-th term's root at m_k = lo
        for a in range(0, int(ends[-1]), chunk):  # the level's points a .. b-1
            b = min(a + chunk, int(ends[-1]))
            i, j = np.searchsorted(ends, a, "right"), np.searchsorted(starts, b)
            c = np.minimum(ends[i:j], b) - np.maximum(starts[i:j], a)
            # q is built in place from m_k - lo (exact), so the root
            # diag * (m_k - lo) + base suffers no cancellation
            q = np.arange(b - a, dtype=float) - np.repeat((starts[i:j] - a).astype(float), c)
            ms = None
            if coords or not last:
                m_k = (np.repeat(lo[i:j], c) + q).astype(np.int64)
                ms = np.column_stack([np.repeat(pre[i:j], c, axis=0), m_k])
            q *= diag
            q += np.repeat(base[i:j], c)
            q *= q
            q += np.repeat(part[i:j], c)
            if last:
                yield ms, q
            else:
                yield from extend(ms, q)

    yield from extend(np.zeros((1, 0), dtype=np.int64), np.zeros(1))


def enumerate_shell(data_or_frame, R, side="primal", cap=2_000_000):
    """All lattice vectors with 0 < Q(l) <= R, lexicographic, certified complete.

    The Fincke-Pohst enumeration runs only once R is within the
    ellipsoid_radius of cap points (else ShellTooLarge).
    """
    if R <= 0:
        raise ValueError("R must be positive")
    if isinstance(data_or_frame, SumLattice):
        frame = data_or_frame
    else:
        frame = SumLattice.from_abelian(data_or_frame, side=side)
    geom = frame.geometry
    if R > ellipsoid_radius(geom, cap):
        raise ShellTooLarge(f"R = {R:.6g} is beyond the radius whose ellipsoid certainly holds {cap} points")
    ms = np.vstack([ms for ms, _q in ellipsoid_chunks(geom, R)])  # the origin at least
    q = frame.q_values(ms)
    return ms[(q > 0) & (q <= R * (1 + 1e-12))]
