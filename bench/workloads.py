"""The four seeded workloads: inputs, timed ops and oracles.

Each workload is built from a seed (for the in-process ones the
constructor is the set-up that `setup_s` measures: imports plus the
PolarizedAbelianData / SumLattice frames), then yields units of ops
forever.  A unit has a fixed mix of op kinds and the timed loop only stops
between units, so every run has the same mix whatever its length.  The
seed chooses the values inside each kind (frame, t, s, u, torsion point,
command order), continuous ones drawn in strata so that a run of a few
hundred ops covers each range evenly.

`check` is the oracle.  It runs after the timed loop, sees every op's
result (or the exception it raised) and returns one verdict per op.
"""

from fractions import Fraction
import math
from pathlib import Path
import random
import subprocess
import sys
import time

BENCH = Path(__file__).resolve().parent

# The polarized data: a fixed design, the same for every seed.  Run time
# depends strongly on the lattice shape (a random pool of curves per seed
# moved throughput by 13% between seeds), so the seed chooses which frame
# each op uses, in balanced rounds, and every other input of the op.
# Entries are (Re tau, Im tau, e_scale); index kappa = e_scale^2.
CURVES = (
    (0, 1, 1), (Fraction(1, 4), Fraction(5, 4), 1), (Fraction(-1, 2), Fraction(3, 2), 1),
    (Fraction(1, 2), Fraction(7, 4), 1), (0, Fraction(5, 4), 2), (Fraction(-1, 4), 1, 2),
    (Fraction(1, 4), Fraction(7, 4), 2), (Fraction(1, 2), Fraction(3, 2), 2),
)
PRODUCTS = ((0, 1), (1, 6), (4, 3), (5, 7))  # kappa 1, 4, 4, 16


class Op:
    """One timed call: `call()` returns the result the oracle checks.

    `group` names the ops of about the same cost (by default its kind);
    run.throughput takes the median time of each group.
    """

    __slots__ = ("kind", "call", "meta", "group")

    def __init__(self, kind, call, group=None, **meta):
        self.kind = kind
        self.call = call
        self.meta = meta
        self.group = group or kind


class Strata:
    """Values in [lo, hi) drawn one per stratum, strata in shuffled blocks."""

    def __init__(self, rng, lo, hi, n=8, log=False):
        self.rng, self.n, self.log = rng, n, log
        self.lo, self.hi = (math.log(lo), math.log(hi)) if log else (lo, hi)
        self.block = []

    def next(self):
        if not self.block:
            self.block = list(range(self.n))
            self.rng.shuffle(self.block)
        k = self.last = self.block.pop()
        x = self.lo + (k + self.rng.random()) / self.n * (self.hi - self.lo)
        return math.exp(x) if self.log else x


class Cycle:
    """The items of a pool, each used once per shuffled round."""

    def __init__(self, rng, items):
        self.rng, self.items, self.block = rng, list(items), []

    def next(self):
        if not self.block:
            self.block = list(self.items)
            self.rng.shuffle(self.block)
        return self.block.pop()


def _abelian_frames():
    """Rank-2 frames of CURVES and rank-4 frames of PRODUCTS, dual side."""
    from polylat.lattice import PolarizedAbelianData, SumLattice

    curves = [PolarizedAbelianData.from_tau(x, y, e_scale=e) for x, y, e in CURVES]
    products = [PolarizedAbelianData.product(curves[i], curves[j]) for i, j in PRODUCTS]
    return {
        2: [SumLattice.from_abelian(d, side="dual") for d in curves],
        4: [SumLattice.from_abelian(d, side="dual") for d in products],
    }


def _float_point(rng, rank, lo=0.05, hi=0.95):
    return [lo + (hi - lo) * rng.random() for _ in range(rank)]


def _torsion_point(rng, rank):
    """Exact rational point of order 2..6, never on the lattice."""
    n = rng.randrange(2, 7)
    while True:
        u = [Fraction(rng.randrange(n), n) for _ in range(rank)]
        if any(x != 0 for x in u):
            return u


def _rel_diff(a, b):
    import numpy as np

    scale = max(float(np.max(np.abs(a))), 1e-30)
    return float(np.max(np.abs(a - b))) / scale


# ---------------------------------------------------------------------------


class ThetaLattice:
    """`theta check-transform` ops: theta_direct + theta_transformed pairs.

    Unit: two rank-2 ops, one rank-4 op.  Constant P takes t log-uniform in
    [0.5, 5] with u as floats or exact rationals; the quadratic monomial
    x_j^2 takes t in [0.5, 1] with float u.  Outside those ranges the two
    sides still agree within their absolute certificates, but the value
    itself falls towards (or to exactly) zero, and a relative comparison
    at 1e-10 measures rounding noise instead of the transform (see
    bench/README.md).
    """

    name = "theta-lattice"
    TOL = 1e-13  # the certificate tolerance of acceptance criterion 1
    REL = 1e-10

    def __init__(self, seed):
        from polylat import theta
        from polylat.polygauss import VectorPolynomial

        self.theta = theta  # looked up per call, so traced runs see the wrappers
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        frames = _abelian_frames()
        self.frames = {r: Cycle(rng, f) for r, f in frames.items()}
        self.const = {r: VectorPolynomial.constant(1.0, r) for r in (2, 4)}
        self.mono = {
            r: [VectorPolynomial(r, {tuple(2 * (i == j) for i in range(r)): [1.0]}) for j in range(r)]
            for r in (2, 4)
        }
        self.t_const = {r: Strata(rng, 0.5, 5.0, log=True) for r in (2, 4)}
        self.t_mono = {r: Strata(rng, 0.5, 1.0, log=True) for r in (2, 4)}
        self.count = 0

    def _op(self, rank):
        rng = self.rng
        frame = self.frames[rank].next()
        self.count += 1
        slot = self.count % 4
        if slot == 0:
            strata = self.t_mono[rank]
            P, t = rng.choice(self.mono[rank]), strata.next()
            u = _float_point(rng, rank, 0.0, 1.0)
        else:
            strata = self.t_const[rank]
            P, t = self.const[rank], strata.next()
            u = _float_point(rng, rank, 0.0, 1.0) if slot % 2 else _torsion_point(rng, rank)
        # cost is set by rank, P and t, so ops are grouped by the t stratum
        group = f"rank{rank}/{'mono' if slot == 0 else 'const'}/t{strata.last}"

        def call():
            a = self.theta.theta_direct(frame, P, u, t, tol=self.TOL, threads=1)
            b = self.theta.theta_transformed(frame, P, u, t, tol=self.TOL, threads=1)
            return a.value, b.value, a.shells_used, b.shells_used

        return Op(f"rank{rank}", call, group=group)

    def units(self):
        while True:
            yield [self._op(2), self._op(2), self._op(4)]

    def digest(self, result):
        return result

    def check(self, done):
        out = []
        for op, res in done:
            if isinstance(res, BaseException):
                out.append((False, f"{type(res).__name__}: {res}"))
                continue
            rel = _rel_diff(res[0], res[1])
            out.append((rel <= self.REL, f"rel {rel:.2e}"))
        return out


class ZetaContinuation:
    """kzeta_accelerated ops in triples over the split A in {0.5, 1, 2}.

    Unit: one rank-2 abelian triple, one rank-2 Euclidean triple at u = 0
    and real s (checked against 4 zeta(s) beta(s)), one rank-4 triple.
    Re s and |Im s| are stratified over [-1.5, 4] and [0, 1], |s| >= 0.1; the
    Euclidean s also keep 0.1 away from the pole at 1 and the zero at -1,
    where a relative spread stops measuring agreement.
    """

    name = "zeta-continuation"
    TOL = 1e-10
    SPREAD = 1e-9
    CLOSED_FORM = 1e-8
    SPLITS = (0.5, 1.0, 2.0)

    def __init__(self, seed):
        from polylat import zeta
        from polylat.lattice import SumLattice
        from polylat.polygauss import VectorPolynomial

        self.zeta = zeta
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        frames = _abelian_frames()
        self.frames = {r: Cycle(rng, f) for r, f in frames.items()}
        self.euclid = SumLattice.euclidean(2)
        self.P = {r: VectorPolynomial.constant(1.0, r) for r in (2, 4)}
        self.re_s = {k: Strata(rng, -1.5, 4.0) for k in ("rank2", "euclid", "rank4")}
        self.im_s = {k: Strata(rng, 0.0, 1.0) for k in ("rank2", "rank4")}
        self.count = 0

    def _s(self, key, real=False):
        while True:
            im = 0.0 if real else self.rng.choice((-1, 1)) * self.im_s[key].next()
            s = complex(self.re_s[key].next(), im)
            if abs(s) < 0.1 or (real and min(abs(s - 1), abs(s + 1)) < 0.1):
                continue
            return s

    def _triple(self, key):
        rng = self.rng
        self.count += 1
        if key == "euclid":
            frame, rank, u, s = self.euclid, 2, [0.0, 0.0], self._s(key, real=True)
        else:
            rank = 2 if key == "rank2" else 4
            frame, s = self.frames[rank].next(), self._s(key)
            u = _float_point(rng, rank) if self.count % 2 else _torsion_point(rng, rank)
        P = self.P[rank]
        ops = []
        for A in self.SPLITS:
            def call(A=A):
                return self.zeta.kzeta_accelerated(frame, P, u, s, split_a=A, tol=self.TOL, threads=1).value

            ops.append(Op(key, call, s=s, euclid=key == "euclid"))
        return ops

    def units(self):
        while True:
            yield self._triple("rank2") + self._triple("euclid") + self._triple("rank4")

    def digest(self, result):
        return result

    def check(self, done):
        import mpmath

        out = []
        for i in range(0, len(done), 3):
            triple = done[i : i + 3]
            errors = [r for _, r in triple if isinstance(r, BaseException)]
            if errors:
                out += [(False, f"{type(errors[0]).__name__}: {errors[0]}")] * len(triple)
                continue
            vals = [complex(r[0]) for _, r in triple]
            scale = max(max(abs(v) for v in vals), 1e-30)
            spread = max(abs(x - y) for x in vals for y in vals) / scale
            ok, note = spread <= self.SPREAD, f"spread {spread:.2e}"
            op = triple[0][0]
            if op.meta["euclid"]:
                s = op.meta["s"].real
                with mpmath.workdps(30):
                    ref = float(4 * mpmath.zeta(s) * mpmath.dirichlet(s, [0, 1, 0, -1]))
                gap = max(abs(v - ref) for v in vals) / max(1.0, abs(ref))
                ok &= gap <= self.CLOSED_FORM
                note += f", closed-form gap {gap:.2e}"
            out += [(ok, note)] * len(triple)
        return out


# ---------------------------------------------------------------------------
# current-grades: brute-force oracle for d = 1


def _smooth_cutoff(x):
    """C-infinity weight: 1 for x <= 1/2, 0 for x >= 1."""
    import numpy as np

    y = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        a = np.where(y < 1, np.exp(-1.0 / np.maximum(1.0 - y, 1e-300)), 0.0)
        b = np.where(y > 0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)
    return a / (a + b)


def brute_force_grades(J, E, u, n_max, rho):
    """Grade components of the d = 1 current by a direct lattice sum.

    Sums chi_l(u) z^{b-1} conj(z)^{a-1} (-Q/2) / Q^{a+b} over the dual
    lattice of E, where z is the Hodge coordinate of l, with a smooth
    cutoff in sqrt(Q/pi) at radius `rho`.  For u off the lattice the
    smoothly cut sum converges faster than any power of rho, including
    the conditionally convergent grade 2.  The grade-n component of word
    (0^{b-1} 1^{a-1}) is (-1)^{a+1} / kappa times that sum.  Only J and E
    come from the program; nothing else of it is used.
    """
    import numpy as np

    J = np.array([[float(x) for x in row] for row in J])
    E = np.array(E, dtype=float)
    W = np.linalg.inv(E).T  # columns generate the dual lattice
    S = 0.5 * (J.T @ E + (J.T @ E).T)  # Q(l) = pi l^T S l
    K = int(math.ceil(rho / np.sqrt(np.linalg.eigvalsh(W.T @ S @ W)[0]))) + 1
    g = np.arange(-K, K + 1, dtype=float)
    m = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    lam = m[np.any(m != 0, axis=1)] @ W.T
    q = np.einsum("ij,jk,ik->i", lam, S, lam)  # Q / pi
    keep = q < rho * rho
    lam, q = lam[keep], math.pi * q[keep]
    weight = _smooth_cutoff(np.sqrt(q / math.pi) / rho)
    chi = np.exp(2j * math.pi * (lam @ E @ np.asarray(u, dtype=float)))
    p_minus = (np.eye(2) - 1j * J) / 2.0
    f0 = p_minus[:, 0]
    z = (lam @ p_minus.T) @ f0.conj() / (f0.conj() @ f0)
    kappa = abs(round(np.linalg.det(E)))
    base = -0.5 * weight * chi  # the contraction -Q/2 over Q^n
    out = {}
    for n in range(2, n_max + 1):
        for a in range(1, n):
            b = n - a
            val = complex(np.sum(base * z ** (b - 1) * np.conj(z) ** (a - 1) / q ** (n - 1)))
            word = tuple([0] * (b - 1) + [1] * (a - 1))
            out[(n, word)] = (-1) ** (a + 1) / kappa * val
    return out


def _lattice_distance(u):
    """Euclidean distance from u to Z^rank, in lattice coordinates."""
    v = [float(x) % 1.0 for x in u]
    return math.sqrt(sum(min(x, 1.0 - x) ** 2 for x in v))


class CurrentGrades:
    """Current series ops of three kinds.

    Unit: g_total to grade 5 on each of three d = 1 data (tau = i;
    tau = i with kappa = 4; tau = 1/4 + 4i/3) at off-lattice u; one
    eisenstein_value with l = 2 at a torsion point whose order cycles
    through 2..6; g_total to grade 3 on the d = 2 product of tau = i and
    tau = 1/2 + 3i/2, at u and at -u.
    """

    name = "current-grades"
    TOL = 1e-9  # the library default of g_total
    ABS = 1e-7  # brute-force agreement, as in verify.check_current_oracle
    VANISH = 1e-9
    PARITY = 1e-9
    RHO = 44.0  # brute-force radius times the distance of u to the lattice
    D2_POINT = (0.35, 0.45, 0.55, 0.65)

    def __init__(self, seed):
        from polylat import currents
        from polylat.lattice import PolarizedAbelianData

        self.currents = currents
        rng = self.rng = random.Random(f"{self.name}:{seed}")
        PAD = PolarizedAbelianData
        self.d1 = [
            PAD.from_tau(0, 1),
            PAD.from_tau(0, 1, e_scale=2),
            PAD.from_tau(Fraction(1, 4), Fraction(4, 3)),
        ]
        self.d2 = PAD.product(PAD.from_tau(0, 1), PAD.from_tau(Fraction(1, 2), Fraction(3, 2)))
        self.orders = Cycle(rng, (2, 3, 4, 5, 6))

    def _d1_op(self, data):
        u = _float_point(self.rng, 2, 0.2, 0.8)

        def call():
            return self.currents.g_total(data, u, 5, tol=self.TOL, threads=1)

        return Op("d1", call, data=data, u=u)

    def _eis_op(self):
        rng = self.rng
        n = self.orders.next()
        while True:
            p, q = rng.randrange(n), rng.randrange(n)
            if math.gcd(math.gcd(p, q), n) == 1:
                break
        x = (Fraction(p, n), Fraction(q, n))
        data = rng.choice(self.d1)

        def call():
            return self.currents.eisenstein_value(data, x, 2, 5, tol=self.TOL, threads=1)

        return Op("eisenstein", call, data=data, x=x, order=n)

    def _d2_pair(self):
        # u and -u reduce to h and 1 - h, and the cost of a d = 2 op grows
        # with |h| (0.45 s at |h| = 0.8, 0.95 s at 1.2).  A permutation of
        # D2_POINT, jittered, keeps |h| and |1 - h| near 1.02 for every op.
        u = [x + self.rng.uniform(-0.02, 0.02) for x in self.rng.sample(self.D2_POINT, 4)]
        ops = []
        for sign in (1, -1):
            v = [sign * x for x in u]

            def call(v=v):
                return self.currents.g_total(self.d2, v, 3, tol=self.TOL, threads=1)

            ops.append(Op("d2", call))
        return ops

    def units(self):
        while True:
            yield [self._d1_op(d) for d in self.d1] + [self._eis_op()] + self._d2_pair()

    def digest(self, result):
        if isinstance(result, dict):
            return [sorted(cv.components.items()) for _, cv in sorted(result.items())]
        return sorted(result.components.items())

    def _brute(self, data, u, n_max):
        rho = self.RHO / _lattice_distance(u)
        return brute_force_grades(data.J, data.E, u, n_max, max(rho, 60.0))

    def _check_d1(self, op, grades):
        ref = self._brute(op.meta["data"], op.meta["u"], 5)
        worst = 0.0
        for n, cv in grades.items():
            keys = {w for (w, ext) in cv.components} | {w for (m, w) in ref if m == n}
            for w in keys:
                worst = max(worst, abs(cv.component(w) - ref.get((n, w), math.inf)))
        return worst <= self.ABS, f"brute-force gap {worst:.2e}"

    def _check_eis(self, op, ev):
        if op.meta["order"] == 2:
            return ev.norm() <= self.VANISH, f"2-torsion norm {ev.norm():.2e}"
        ref = self._brute(op.meta["data"], op.meta["x"], 5)
        # contract one slot with the functional picking Hodge symbol 0
        want = {}
        for (n, word), val in ref.items():
            if n == 5 and 0 in word:
                rest = list(word)
                rest.remove(0)
                want[tuple(rest)] = want.get(tuple(rest), 0j) + word.count(0) / len(word) * val
        keys = {w for (w, ext) in ev.components} | set(want)
        worst = max(abs(ev.component(w) - want.get(w, math.inf)) for w in keys)
        return worst <= self.ABS, f"contracted brute-force gap {worst:.2e}"

    def _check_parity(self, plus, minus):
        worst, scale = 0.0, 0.0
        for n, cv in plus.items():
            other = minus[n]
            for key in set(cv.components) | set(other.components):
                a, b = cv.components.get(key, math.inf), other.components.get(key, math.inf)
                worst = max(worst, abs((-1) ** n * a - b))
                scale = max(scale, abs(a))
        return worst <= self.PARITY * max(scale, 1e-30), f"parity gap {worst:.2e} (scale {scale:.2e})"

    def check(self, done):
        out = []
        i = 0
        while i < len(done):
            op, res = done[i]
            step = 2 if op.kind == "d2" else 1
            group = done[i : i + step]
            errors = [r for _, r in group if isinstance(r, BaseException)]
            if errors:
                verdict = (False, f"{type(errors[0]).__name__}: {errors[0]}")
            elif op.kind == "d1":
                verdict = self._check_d1(op, res)
            elif op.kind == "eisenstein":
                verdict = self._check_eis(op, res)
            else:
                verdict = self._check_parity(group[0][1], group[1][1])
            out += [verdict] * step
            i += step
        return out


# ---------------------------------------------------------------------------
# cli-cold

# The README "## CLI" block, fixed here so that the workload does not
# change when the README does; selftest.py checks that the two agree.
README_COMMANDS = (
    ("lattice", "info", "configs/tau_i.cfg"),
    ("theta", "eval", "configs/jacobi_rank1.cfg", "--t", "1.0"),
    ("theta", "check-transform", "configs/tau_i.cfg", "--t", "0.7", "--u", "0.3,0.4"),
    ("zeta", "eval", "configs/z2_euclidean.cfg", "--s", "2,0", "--mode", "accel"),
    ("zeta", "check", "configs/tau_i.cfg", "--s", "3.5,0", "--u", "0.25,0.375"),
    ("zeta", "scan", "configs/tau_i.cfg", "--s", "2,0", "--grid-n", "8", "--fd-step", "0.008"),
    ("current", "eval", "configs/tau_i.cfg", "--u", "0.31,0.47", "--grade-max", "4"),
    ("eisenstein", "eval", "configs/tau_i.cfg", "--torsion", "1/3,0", "--l", "2"),
    ("algebra", "verify", "--m", "4", "--n", "4", "--hdim", "2", "--nmax", "5"),
    ("bm", "verify", "--d", "2", "--r", "0.4", "--quad", "32"),
    ("suite", "run", "--quick"),
)


class CliCold:
    """Each README command as a fresh `python -m polylat.cli` process.

    A unit is one pass over all commands in a seeded order.  The oracle
    wants exit code 0 and stdout byte-identical to another invocation of
    the same command (from the loop, or one more run after it).
    """

    name = "cli-cold"

    def __init__(self, seed, trace_dir=None):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.commands = list(README_COMMANDS)
        self.trace_dir = trace_dir
        self.count = 0

    def _invoke(self, argv, summary=None):
        if summary is None:
            cmd = [sys.executable, "-m", "polylat.cli", *argv]
        else:
            cmd = [sys.executable, str(BENCH / "worker.py"), "cli-traced", str(summary), "--", *argv]
        start = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, (start, time.perf_counter_ns(), summary)

    def _op(self, argv):
        self.count += 1
        summary = None if self.trace_dir is None else Path(self.trace_dir) / f"op{self.count}.json"
        return Op(" ".join(argv[:2]), lambda: self._invoke(argv, summary), argv=argv)

    def units(self):
        while True:
            order = list(self.commands)
            self.rng.shuffle(order)
            yield [self._op(argv) for argv in order]

    def digest(self, result):
        return result[:2]

    def check(self, done):
        outputs = {}
        for op, res in done:
            if not isinstance(res, BaseException):
                outputs.setdefault(op.meta["argv"], []).append(res[1])
        out = []
        for op, res in done:
            if isinstance(res, BaseException):
                out.append((False, f"{type(res).__name__}: {res}"))
                continue
            rc, stdout = res[0], res[1]
            seen = outputs[op.meta["argv"]]
            if len(seen) < 2:
                seen.append(self._invoke(op.meta["argv"])[1])
            same = all(s == stdout for s in seen)
            out.append((rc == 0 and same, f"exit {rc}, stdout {'repeats' if same else 'differs'}"))
        return out


WORKLOADS = {w.name: w for w in (ThetaLattice, ZetaContinuation, CurrentGrades, CliCold)}


def make(name, seed, trace_dir=None):
    """Build a workload; this is the set-up that `setup_s` times."""
    if name == CliCold.name:
        return CliCold(seed, trace_dir=trace_dir)
    return WORKLOADS[name](seed)
