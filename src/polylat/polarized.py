"""Polarized lattice data, exact: complex structure, pairing, dual lattice.

A polarized complex torus over a point base is stored as the integral
lattice Z^{2d} (its own coordinates), a complex structure J on the real
span and an integral alternating pairing E.  The pairing convention is
<x,y> = 2*pi*i*E(x,y) and positivity is pinned by E(J l, l) > 0, which
fixes the orientation used by every downstream sign.

J and E are kept exact (Fraction / int matrices); floats only enter at
evaluation time, so this module imports numpy and `lattice` only inside
its float helpers.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import math

from . import ratlin
from .errors import ConventionViolation, SingularPolarization

CONVENTION_NOTE = "iota=2*pi*i substituted numerically; omega = pairing/2; E(Jl,l)>0"


def _to_float_matrix(rows):
    import numpy as np

    return np.array([[float(x) for x in row] for row in rows], dtype=float)


class PolarizedAbelianData:
    """Lattice Z^{2d} with complex structure J and alternating pairing E.

    Invariants checked at construction: J^2 = -1, E alternating and
    nondegenerate, E(Jx, Jy) = E(x, y), and positivity E(Jl, l) > 0 for
    all nonzero l (certified through positive definiteness of the
    symmetrized matrix of E(J., .)).
    """

    def __init__(self, d, J, E):
        self.d = int(d)
        n = 2 * self.d
        self.J = ratlin.frac_matrix(J)
        self.E = [[int(x) for x in row] for row in E]
        if len(self.J) != n or len(self.E) != n:
            raise ValueError(f"J and E must be {n}x{n}")
        self._validate()

    def _validate(self):
        n = 2 * self.d
        j2 = ratlin.mat_mul(self.J, self.J)
        if j2 != ratlin.mat_neg(ratlin.identity(n)):
            raise ConventionViolation("J^2 != -identity")
        for i in range(n):
            for j in range(n):
                if self.E[i][j] != -self.E[j][i]:
                    raise SingularPolarization("E is not alternating")
        ef = ratlin.frac_matrix(self.E)
        self._det_e = int(ratlin.det(ef))
        if self._det_e == 0:
            raise SingularPolarization("det E = 0")
        # compatibility E(Jx, Jy) = E(x, y)
        jt_e_j = ratlin.mat_mul(ratlin.mat_mul(ratlin.transpose(self.J), ef), self.J)
        if jt_e_j != ef:
            raise ConventionViolation("E(Jx, Jy) != E(x, y)")
        # positivity: S = sym(J^T E) must be positive definite; then
        # E(Jl, l) = l^T S l > 0 for every nonzero l, not just a sample.
        jte = ratlin.mat_mul(ratlin.transpose(self.J), ef)
        s = [[(jte[i][j] + jte[j][i]) / 2 for j in range(n)] for i in range(n)]
        if jte != s:
            raise ConventionViolation("E(J., .) failed to symmetrize")
        for k in range(1, n + 1):
            minor = [row[:k] for row in s[:k]]
            if ratlin.det(minor) <= 0:
                raise ConventionViolation(
                    "E(Jl, l) is not positive definite; J/E orientation mismatch"
                )
        self._q_rat = s  # exact matrix of Q/pi in the lattice basis

    # -- alternate constructors -------------------------------------------

    @classmethod
    def from_period_matrix(cls, periods, E, tol=1e-12):
        """Build (J, E) from a d x 2d complex period matrix.

        The complex structure is transported from multiplication by i on
        C^d; Riemann-relation failures surface as the usual invariant
        violations (within `tol`, entries are rationalized by rounding to
        a bounded-denominator fraction).
        """
        import numpy as np

        P = np.asarray(periods, dtype=complex)
        d = P.shape[0]
        if P.shape != (d, 2 * d):
            raise ValueError("period matrix must be d x 2d")
        stack = np.vstack([P.real, P.imag])
        if abs(np.linalg.det(stack)) < tol:
            raise SingularPolarization("period matrix has degenerate real span")
        mult_i = np.block(
            [[np.zeros((d, d)), -np.eye(d)], [np.eye(d), np.zeros((d, d))]]
        )
        jf = np.linalg.solve(stack, mult_i @ stack)
        if np.max(np.abs(jf @ jf + np.eye(2 * d))) > 1e-9:
            raise ConventionViolation("transported J fails J^2 = -1")
        J = [[_snap_fraction(x, tol) for x in row] for row in jf]
        return cls(d, J, E)

    @classmethod
    def from_tau(cls, tau_re, tau_im, e_scale=1):
        """Elliptic-curve convenience: lattice Z + Z*tau with rational tau.

        `e_scale` >= 1 scales the principal pairing, giving index
        kappa = e_scale^2.
        """
        x, y = Fraction(tau_re), Fraction(tau_im)
        if y <= 0:
            raise ConventionViolation("tau must lie in the upper half plane")
        J = [[-x / y, -(x * x + y * y) / y], [1 / y, x / y]]
        s = int(e_scale)
        E = [[0, -s], [s, 0]]
        return cls(1, J, E)

    @classmethod
    def product(cls, *factors):
        """Block-diagonal product of polarized data (ranks add)."""
        d = sum(f.d for f in factors)
        n = 2 * d
        J = [[Fraction(0)] * n for _ in range(n)]
        E = [[0] * n for _ in range(n)]
        off = 0
        for f in factors:
            k = 2 * f.d
            for i in range(k):
                for j in range(k):
                    J[off + i][off + j] = f.J[i][j]
                    E[off + i][off + j] = f.E[i][j]
            off += k
        return cls(d, J, E)

    # -- basic geometry ----------------------------------------------------

    @property
    def rank(self):
        return 2 * self.d

    @property
    def q_matrix_rat(self):
        """Exact matrix of Q/pi: Q(l) = pi * l^T q_matrix_rat l."""
        return self._q_rat

    def q_matrix(self):
        return math.pi * _to_float_matrix(self._q_rat)

    def j_float(self):
        return _to_float_matrix(self.J)

    def e_float(self):
        return _to_float_matrix(self.E)

    def det_e(self):
        return self._det_e

    @cached_property
    def dual_frame(self):
        """lattice.SumLattice.from_abelian(self, "dual"): the frame of every
        current and Eisenstein sum and of the suite's dual-frame checks,
        built on first use and kept while this datum lives."""
        from .lattice import SumLattice

        return SumLattice.from_abelian(self, side="dual")


@dataclass(frozen=True)
class DualLattice:
    """Generators of the 2*pi*i-dual lattice and its index over the base."""

    basis: tuple  # columns, as tuples of Fractions, in lattice coordinates
    kappa: int


def dual_lattice(data):
    """Vectors pairing integrally with the lattice, plus the index kappa = |det E|."""
    # l' in the dual iff E(l', e_j) in Z for all j, i.e. E^T l' integral;
    # generators are the columns of E^{-T}.
    inv_t = ratlin.transpose(ratlin.inverse(ratlin.frac_matrix(data.E)))
    cols = tuple(tuple(inv_t[i][j] for i in range(len(inv_t))) for j in range(len(inv_t)))
    return DualLattice(basis=cols, kappa=abs(data.det_e()))


def _snap_fraction(x, tol):
    """Rationalize a float whose exact value is a small-denominator rational."""
    f = Fraction(float(x)).limit_denominator(10**9)
    if abs(float(f) - float(x)) > tol * max(1.0, abs(float(x))):
        raise ConventionViolation(f"matrix entry {x!r} is not near-rational")
    return f
