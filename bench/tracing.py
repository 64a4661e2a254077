"""Span tracing around polylat's public functions, installed from outside.

The benchmark never edits the program.  `install` replaces each public
function listed in FUNCTIONS under every name a polylat module binds it
to (so `polylat.zeta.upper_gamma` is wrapped, not only
`polylat.incgamma.upper_gamma`), and each method in METHODS on its class.
Every wrapped call records one span: name, start, end, parent span and
op id, kept in flat arrays and written out when the run ends.

Self time of a span is its duration minus the durations of its direct
children, so the self times of all spans add up to the duration of the
op spans that enclose them, with nothing counted twice.  It is summed per
name as each span closes; `self_times` derives the same sums from the
kept spans, which selftest.py compares.

`map_shells` receives closures defined inside the engines (the per-shell
work of theta_direct, kzeta_accelerated, ...).  Their calls get spans that
carry the name of the engine span enclosing the map_shells call, so that
per-shell work is charged to the engine and `sums.map_shells.self_s` is
the dispatch overhead alone.
"""

from array import array
import functools
import importlib
import sys
import time

import numpy as np

OP_SPAN = "bench.op"

MODULES = (
    "lattice", "sums", "polygauss", "incgamma", "theta", "zeta", "currents",
    "torus", "symalg", "bm", "config", "cli", "verify",
)


def _count_rows(counts, args, kwargs, result):
    counts["lattice.box_shell.points"] += len(result)


def _count_terms(counts, args, kwargs, result):
    poly, pts = args[0], args[1]
    counts["polygauss.VectorPolynomial.evaluate_many.terms"] += len(pts) * len(poly.coeffs)


def _count_shells(name):
    def count(counts, args, kwargs, result):
        counts[name + ".shells"] += result.shells_used
    return count


def _count_vanishing(counts, args, kwargs, result):
    counts["currents.g_abk.vanishing"] += result.regime == "vanishing"


# (module, attribute, span name, counter)
FUNCTIONS = (
    ("lattice", "box_shell", "lattice.box_shell", _count_rows),
    ("sums", "map_shells", "sums.map_shells", None),
    ("sums", "gaussian_tail", "sums.gaussian_tail", None),
    ("sums", "power_tail", "sums.power_tail", None),
    ("polygauss", "gaussian_ft", "polygauss.gaussian_ft", None),
    ("incgamma", "upper_gamma", "incgamma.upper_gamma", None),
    ("theta", "theta_direct", "theta.theta_direct", _count_shells("theta.theta_direct")),
    ("theta", "theta_transformed", "theta.theta_transformed",
     _count_shells("theta.theta_transformed")),
    ("zeta", "kzeta_accelerated", "zeta.kzeta_accelerated", None),
    ("zeta", "kzeta_direct", "zeta.kzeta_direct", None),
    ("zeta", "smoothness_scan", "zeta.smoothness_scan", None),
    ("currents", "g_grade", "currents.g_grade", None),
    ("currents", "g_abk", "currents.g_abk", _count_vanishing),
    ("currents", "eisenstein_value", "currents.eisenstein_value", None),
    ("torus", "double_contraction_forms", "torus.double_contraction_forms", None),
    ("symalg", "psi_n_matrix", "symalg.psi_n_matrix", None),
    ("symalg", "gamma_vs_delta", "symalg.gamma_vs_delta", None),
    ("symalg", "theta_ladder_check", "symalg.theta_ladder_check", None),
    ("bm", "sphere_integral", "bm.sphere_integral", None),
    ("config", "load_config", "config.load_config", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, counter); __init__ spans count instances
METHODS = (
    ("lattice", "SumLattice", "points", "lattice.SumLattice.points", None),
    ("lattice", "SumLattice", "q_values", "lattice.SumLattice.q_values", None),
    ("lattice", "SumLattice", "char_values", "lattice.SumLattice.char_values", None),
    ("lattice", "SumLattice", "char_values_exact", "lattice.SumLattice.char_values_exact", None),
    ("lattice", "SumLattice", "from_abelian", "lattice.SumLattice.from_abelian", None),
    ("sums", "CompensatedSum", "add", "sums.CompensatedSum.add", None),
    ("polygauss", "VectorPolynomial", "evaluate_many",
     "polygauss.VectorPolynomial.evaluate_many", _count_terms),
    ("polygauss", "GaussPolyFactor", "poly_eval_many", "polygauss.GaussPolyFactor.poly_eval_many", None),
    ("currents", "HodgeFrame", "__init__", "currents.HodgeFrame", None),
)

SPAN_NAMES = (OP_SPAN,) + tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)


class Tracer:
    """Span recorder for one single-threaded process.

    Self time is accumulated as each span closes (its duration minus the
    durations of the direct children that closed inside it), so the
    metrics cost no memory.  The spans themselves are also kept, up to
    MAX_SPANS; a hot leaf such as upper_gamma can open millions of them.
    """

    MAX_SPANS = 1_000_000

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack = []  # open spans: (stored index or -1, name id, start ns)
        self.child_ns = []  # per open span: time covered by closed children
        self.self_ns = [0] * len(self.names)
        self.top_ns = 0  # time covered by spans without a parent
        self.opened = 0
        self.op_id = -1
        self.calls = dict.fromkeys(self.names, 0)
        self.counts = {
            "lattice.box_shell.points": 0,
            "polygauss.VectorPolynomial.evaluate_many.terms": 0,
            "theta.theta_direct.shells": 0,
            "theta.theta_transformed.shells": 0,
            "currents.g_abk.vanishing": 0,
        }

    def _open(self, nid):
        self.opened += 1
        idx = -1
        if len(self.start) < self.MAX_SPANS:
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self.stack[-1][0] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0)
        self.child_ns.append(0)
        now = time.perf_counter_ns()
        if idx >= 0:
            self.start.append(now)
        self.stack.append((idx, nid, now))

    def _close(self):
        now = time.perf_counter_ns()
        idx, nid, start = self.stack.pop()
        dur = now - start
        self.self_ns[nid] += dur - self.child_ns.pop()
        if self.child_ns:
            self.child_ns[-1] += dur
        else:
            self.top_ns += dur
        if idx >= 0:
            self.end[idx] = now

    def begin_op(self, op_id):
        self.op_id = op_id
        self.calls[OP_SPAN] += 1
        self._open(0)

    def end_op(self):
        self._close()

    def wrap(self, name, fn, count=None):
        nid = self._ids[name]
        calls = self.calls
        counts = self.counts
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return wrapper

    def wrap_map_shells(self, fn):
        """map_shells whose per-shell calls are charged to the calling engine."""
        nid = self._ids["sums.map_shells"]
        calls = self.calls
        open_, close = self._open, self._close
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(shell_fn, ks, *args, **kwargs):
            calls["sums.map_shells"] += 1
            owner = stack[-1][1] if stack else 0

            def charged(k):
                open_(owner)
                try:
                    return shell_fn(k)
                finally:
                    close()

            open_(nid)
            try:
                return fn(charged, ks, *args, **kwargs)
            finally:
                close()

        return wrapper

    # -- results ---------------------------------------------------------

    def arrays(self):
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def write(self, path):
        """Write the kept spans (and the name table) as an .npz file."""
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self):
        """Per-name self time (ns), call counts and counters, JSON-ready."""
        return {
            "self_ns": list(self.self_ns),
            "top_ns": self.top_ns,
            "names": self.names,
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.opened,
            "spans_kept": len(self.start),
        }


def self_times(name, start, end, parent, n_names):
    """Self time per name id from stored spans (cross-check of the online sums)."""
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return np.bincount(name, weights=dur - child, minlength=n_names).tolist()


def install(tracer):
    """Wrap every listed function and method of the loaded polylat package."""
    mods = {m: importlib.import_module(f"polylat.{m}") for m in MODULES}
    loaded = [mod for key, mod in sys.modules.items() if key.startswith("polylat") and mod]
    for mod_name, attr, span, count in FUNCTIONS:
        original = getattr(mods[mod_name], attr)
        if span == "sums.map_shells":
            wrapper = tracer.wrap_map_shells(original)
        else:
            wrapper = tracer.wrap(span, original, count)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    for mod_name, cls_name, meth, span, count in METHODS:
        cls = getattr(mods[mod_name], cls_name)
        raw = cls.__dict__[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(span, raw.__func__, count)))
        else:
            setattr(cls, meth, tracer.wrap(span, raw, count))
