"""Command-line entry point: one command per engine plus the aggregated suite.

Output is a stream of line-delimited JSON records (sorted keys, no
timestamps) so sequential runs are byte-identical; the scan commands
emit CSV for plot consumption.  Exit codes: 0 success / all checks pass,
1 verification failure or engine error (stable `error` code field),
2 usage or configuration error, 141 stdout closed by its reader.
"""

import argparse
import cmath
import csv
import itertools
import json
import math
import os
import sys
from fractions import Fraction

# Each command imports the engines it runs, so that a command pays only
# for those (`algebra verify` never imports numpy).
from .errors import ConfigError, PolylatError


def _json_default(obj):
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, Fraction):
        return str(obj)
    if hasattr(obj, "tolist"):  # numpy scalars and arrays
        return obj.tolist()
    raise TypeError(f"unserializable {type(obj)!r}")


def emit(record, out=None):
    (out or sys.stdout).write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


def positive(text):
    """argparse type for an option that must be finite and > 0; a ConfigError (exit 2) otherwise."""
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise ConfigError(f"expected a positive finite number, got {text!r}")
    return value


def at_least(lo):
    """argparse type for an integer option that must be >= lo; a ConfigError (exit 2) otherwise."""

    def parse(text):
        value = int(text)
        if value < lo:
            raise ConfigError(f"expected an integer >= {lo}, got {text!r}")
        return value

    return parse


def _input(parse):
    """Report malformed input to a parse helper as a ConfigError, not a traceback."""

    def wrapped(text, *args):
        try:
            return parse(text, *args)
        except (ValueError, TypeError, AttributeError, IndexError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"malformed input {text!r}: {exc}") from None

    return wrapped


@_input
def parse_rational_vector(text, rank):
    vec = [Fraction(x) for x in text.split(",")]
    if len(vec) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(vec)}")
    if any(abs(x) > sys.float_info.max for x in vec):
        raise ValueError("a coordinate lies beyond float range")
    return vec


def parse_vector(text, rank):
    return [float(x) for x in parse_rational_vector(text, rank)]


@_input
def parse_complex(text):
    parts = [float(x) for x in text.split(",")]
    if len(parts) > 2:
        raise ValueError(f"expected re or re,im, got {len(parts)} parts")
    value = complex(*parts)
    if not cmath.isfinite(value):
        raise ValueError("both parts must be finite")
    return value


@_input
def parse_poly(text, rank):
    """'1' for the constant, else JSON {'e1,e2,..': [re, im], ...}."""
    from .polygauss import VectorPolynomial

    text = text.strip()
    if text == "1":
        return VectorPolynomial.constant(1.0, rank)
    spec = json.loads(text)
    coeffs = {}
    degrees = set()
    for key, val in spec.items():
        alpha = tuple(int(x) for x in key.split(","))
        if len(alpha) != rank:
            raise ConfigError(f"polynomial exponent {key!r} has arity != {rank}")
        coeffs[alpha] = [complex(val[0], val[1] if len(val) > 1 else 0.0)]
        degrees.add(sum(alpha))
    return VectorPolynomial(rank, coeffs, homogeneous=len(degrees) <= 1)


def poly_spec(P):
    """Serialize a polynomial as multi-index / coefficient lists."""
    return {
        ",".join(str(a) for a in alpha): [complex(c) for c in vec]
        for alpha, vec in sorted(P.coeffs.items())
    }


def _theta_record(result, command, inputs):
    return {
        "command": command,
        "inputs": inputs,
        "value": [complex(v) for v in result.value],
        "tail_bound": result.tail_bound,
        "shells_used": result.shells_used,
        "mode": result.mode,
    }


def _components(cv):
    """A current value's components keyed 'word|ext', in sorted order."""
    return {f"{list(word)}|{list(ext)}": complex(v) for (word, ext), v in sorted(cv.components.items())}


def _current_record(cv, command, inputs):
    return {
        "command": command,
        "inputs": inputs,
        "components": _components(cv),
        "regime": cv.regime,
        "error_bound": cv.error_bound,
        "convention_metadata": cv.meta.get("convention"),
    }


def _midpoints(n, rank):
    """The torus grid of cell midpoints (i + 1/2)/n, n per axis."""
    return [tuple((i + 0.5) / n for i in idx) for idx in itertools.product(range(n), repeat=rank)]


def frame_inputs(args, u_default=0.0):
    """(cfg, frame, P, u) of a frame command, parsed in that order; u is None for a command without --u."""
    from .config import load_config

    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    u = None
    if "u" in args:
        u = parse_vector(args.u, frame.rank) if args.u else [u_default] * frame.rank
    return cfg, frame, P, u


def abelian_config(args):
    from .config import load_config

    cfg = load_config(args.config)
    if cfg.lattice_kind != "abelian":
        raise ConfigError(f"{args.group} {args.action} needs abelian lattice data")
    return cfg


def cmd_lattice_info(args):
    import numpy as np

    from .config import load_config
    from .lattice import enumerate_shell

    cfg = load_config(args.config)
    frame = cfg.frame(side="primal")
    if cfg.lattice_kind == "euclidean":
        record = {"kind": "euclidean", "rank": frame.rank, "gram_det": float(np.linalg.det(frame.gram))}
        radius = 4.0 * frame.sigma_max
    else:
        from .polarized import CONVENTION_NOTE

        data = cfg.data
        record = {
            "kind": "abelian",
            "d": data.d,
            "kappa": abs(data.det_e()),
            "det_e": data.det_e(),
            "convention_checks": {"j_squared": "exact", "e_alternating": True, "positivity": True},
            "convention_metadata": CONVENTION_NOTE,
        }
        radius = 4.0 * math.pi * data.d
    record["command"] = "lattice info"
    record["min_nonzero_q"] = float(np.min(frame.q_values(enumerate_shell(frame, radius))))
    emit(record)
    return 0


def cmd_theta_eval(args):
    from .theta import theta_eval

    cfg, frame, P, u = frame_inputs(args)
    res = theta_eval(frame, P, u, args.t, tol=cfg.tol(args.tol), mode=args.mode)
    emit(_theta_record(res, "theta eval", {"p": poly_spec(P), "t": args.t, "u": u, "mode": args.mode}))
    return 0


def cmd_theta_check(args):
    import numpy as np

    from .theta import theta_direct, theta_transformed

    cfg, frame, P, u = frame_inputs(args)
    # truncation certificates must sit well below the comparison threshold
    tol = min(cfg.tol(args.tol), args.threshold / 100.0)
    a = theta_direct(frame, P, u, args.t, tol=tol)
    b = theta_transformed(frame, P, u, args.t, tol=tol)
    denom = max(float(np.max(np.abs(a.value))), 1e-30)
    rel = float(np.max(np.abs(a.value - b.value))) / denom
    record = {
        "command": "theta check-transform",
        "inputs": {"t": args.t, "u": u},
        "direct": [complex(v) for v in a.value],
        "transformed": [complex(v) for v in b.value],
        "relative_discrepancy": rel,
        "certificates": [a.tail_bound, b.tail_bound],
        "status": "pass" if rel <= args.threshold else "fail",
    }
    emit(record)
    return 0 if record["status"] == "pass" else 1


def cmd_zeta_eval(args):
    from .zeta import kzeta

    cfg, frame, P, u = frame_inputs(args)
    s = parse_complex(args.s)
    split_a = cfg.split_a(args.split_a)
    zv = kzeta(frame, P, u, s, mode=args.mode, split_a=split_a, tol=cfg.tol(args.tol))
    emit(
        {
            "command": "zeta eval",
            "inputs": {"p": poly_spec(P), "s": s, "u": u, "split_a": split_a, "mode": args.mode},
            "value": [complex(v) for v in zv.value],
            "regime": zv.regime,
            "error_bound": zv.error_bound,
        }
    )
    return 0


def cmd_zeta_check(args):
    from .zeta import kzeta, kzeta_accelerated

    cfg, frame, P, u = frame_inputs(args, u_default=1.0 / 3.0)
    s = parse_complex(args.s)
    tol = cfg.tol(args.tol)
    vals = {}
    for a in (0.5, 1.0, 2.0):
        vals[a] = kzeta_accelerated(frame, P, u, s, split_a=a, tol=tol)
    scale = max(max(abs(v.scalar()) for v in vals.values()), 1e-30)
    spread = max(abs(x.scalar() - y.scalar()) for x in vals.values() for y in vals.values()) / scale
    record = {
        "command": "zeta check",
        "inputs": {"s": s, "u": u},
        "a_values": {str(a): complex(v.scalar()) for a, v in vals.items()},
        "relative_spread": spread,
        "status": "pass" if spread <= 1e-9 else "fail",
    }
    try:
        direct = kzeta(frame, P, u, s, mode="direct", tol=tol)
        gap = abs(direct.scalar() - vals[1.0].scalar()) / scale
        record["direct_gap"] = gap
        if gap > 1e-8:
            record["status"] = "fail"
    except PolylatError as exc:
        record["direct_gap"] = None
        record["direct_skipped"] = exc.code
    emit(record)
    return 0 if record["status"] == "pass" else 1


def cmd_zeta_scan(args):
    from .zeta import smoothness_scan

    cfg, frame, P, _ = frame_inputs(args)
    s = parse_complex(args.s)
    grid = _midpoints(args.grid_n, frame.rank)
    rows = smoothness_scan(frame, P, s, grid, fd_step=args.fd_step, tol=cfg.tol(args.tol))
    writer = csv.writer(sys.stdout)
    writer.writerow([f"u{i + 1}" for i in range(frame.rank)] + ["component", "value_re", "value_im", "grad_norm"])
    for row in rows:
        for comp in range(P.target_dim):
            val = row["value"][comp]
            writer.writerow(
                [f"{x:.12g}" for x in row["u"]]
                + [comp, f"{val.real:.15g}", f"{val.imag:.15g}", f"{row['grad_norm']:.15g}"]
            )
    return 0


def cmd_current_eval(args):
    from .currents import g_total

    cfg = abelian_config(args)
    u = parse_vector(args.u, cfg.data.rank)
    grades = g_total(cfg.data, u, cfg.grade_max(args.grade_max), tol=cfg.tol(args.tol))
    for n, cv in grades.items():
        emit(_current_record(cv, "current eval", {"u": u, "grade": n}))
    return 0


def cmd_current_scan(args):
    from .currents import g_grade

    cfg = abelian_config(args)
    rank = cfg.data.rank
    writer = csv.writer(sys.stdout)
    header = [f"u{i + 1}" for i in range(rank)] + ["component", "value_re", "value_im"]
    for u in _midpoints(args.grid_n, rank):
        cv = g_grade(cfg.data, u, args.grade, tol=cfg.tol(args.tol))
        if header:  # written with the first row, so a scan failing at its first point writes nothing
            writer.writerow(header)
            header = None
        for key, v in _components(cv).items():
            writer.writerow([f"{x:.12g}" for x in u] + [key, f"{v.real:.15g}", f"{v.imag:.15g}"])
    return 0


def cmd_eisenstein_eval(args):
    from .currents import TorsionPoint, eisenstein_value

    cfg = abelian_config(args)
    x = TorsionPoint.from_rationals(parse_rational_vector(args.torsion, cfg.data.rank))
    n_max = args.nmax if args.nmax is not None else args.l + 3
    cv = eisenstein_value(cfg.data, x, args.l, n_max, tol=cfg.tol(args.tol))
    emit(_current_record(cv, "eisenstein eval", {"torsion": [str(v) for v in x.u], "l": args.l, "order": x.order}))
    return 0


def cmd_algebra_verify(args):
    import random

    from .symalg import (
        gamma_vs_delta,
        ladder_counterexample,
        psi_n_matrix,
        splitting_grading_check,
        theta_ladder_check,
    )
    from .torus import flatness_holds

    failures = 0
    for n in range(0, args.n + 1):
        *_, bij = psi_n_matrix(args.m, n)
        emit({"identity": "psi_bijective", "m": args.m, "n": n, "status": "pass" if bij else "fail"})
        failures += not bij
    rng = random.Random(11)
    els = [tuple(rng.randrange(-5, 6) for _ in range(args.m)) for _ in range(50)]
    verdicts = gamma_vs_delta(args.m, els)
    bad = [e for e, ok in zip(els, verdicts) if not ok]
    emit(
        {
            "identity": "gamma_equals_bar_cocycle",
            "m": args.m,
            "samples": len(els),
            "status": "pass" if not bad else "fail",
            "counterexamples": [list(b) for b in bad[:3]],
        }
    )
    failures += bool(bad)
    for n in range(0, args.nmax + 1):
        psi_ok, theta_ok = theta_ladder_check(args.hdim, n)
        rec = {
            "identity": "theta_ladder_square",
            "hdim": args.hdim,
            "n": n,
            "theta": "pass" if theta_ok else "fail",
            "psi_negative_control": "fails_as_expected" if (n == 0 or not psi_ok) else "unexpected_pass",
            "status": "pass" if theta_ok and (n == 0 or not psi_ok) else "fail",
        }
        if not theta_ok:
            rec["counterexample"] = ladder_counterexample(args.hdim, n, correct=True)
        emit(rec)
        failures += rec["status"] == "fail"
    ok = splitting_grading_check(args.hdim, args.nmax)
    emit({"identity": "splitting_grading", "hdim": args.hdim, "nmax": args.nmax, "status": "pass" if ok else "fail"})
    failures += not ok
    flat = flatness_holds(n_forms=40)
    emit({"identity": "exterior_and_connection_flatness", "status": "pass" if flat else "fail", "forms": 40})
    failures += not flat
    return 0 if failures == 0 else 1


def cmd_bm_verify(args):
    from .bm import SLOT_CONVENTION, closedness_residual, sphere_integral

    if not 0 < args.r < 1:
        raise ConfigError(f"--r must lie in (0, 1), got {args.r}")
    integral = sphere_integral(args.d, args.r, args.quad)
    residuals = {
        "h=1e-2": closedness_residual(args.d, [0.5 + 0.1j] * args.d, 1e-2),
        "h=5e-3": closedness_residual(args.d, [0.5 + 0.1j] * args.d, 5e-3),
    }
    tol = 1e-10 if args.d == 1 else 1e-6
    record = {
        "command": "bm verify",
        "inputs": {"d": args.d, "r": args.r, "quad": args.quad},
        "integral": integral,
        "residuals": residuals,
        "convention": SLOT_CONVENTION,
        "status": "pass" if abs(integral - 1.0) <= tol else "fail",
    }
    emit(record)
    return 0 if record["status"] == "pass" else 1


def cmd_suite_run(args):
    from .verify import run_suite

    data = abelian_config(args).data if args.config else None
    records = run_suite(data=data, quick=args.quick)
    failures = 0
    for rec in records:
        emit(rec)
        failures += rec["status"] != "pass"
    emit({"check": "summary", "status": "pass" if failures == 0 else "fail", "detail": {"failures": failures, "total": len(records)}})
    return 0 if failures == 0 else 1


# Options that several commands share, by flag; each command names those it takes.
SHARED_OPTIONS = {
    # argparse takes "-1,0" for an option, so a negative real part needs the = form
    "--s": dict(required=True, help="re,im; write a negative real part as --s=-1,0"),
    "--t": dict(type=positive, required=True),
    "--u": dict(default=None),
    "--p": dict(default="1"),
    "--tol": dict(type=positive, default=None),
    "--side": dict(default="dual", choices=["dual", "primal"]),
}


def build_parser():
    parser = argparse.ArgumentParser(prog="polylat", description=__doc__)
    sub = parser.add_subparsers(dest="group", required=True)

    def group(name):
        return sub.add_parser(name).add_subparsers(dest="action", required=True)

    def add(group_parser, name, fn, *options, config=True):
        """A command with the options given in order: a SHARED_OPTIONS flag, or its own (flag, kwargs)."""
        p = group_parser.add_parser(name)
        if config:
            p.add_argument("config")
        for option in options:
            flag, kwargs = (option, SHARED_OPTIONS[option]) if isinstance(option, str) else option
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add(group("lattice"), "info", cmd_lattice_info)

    th = group("theta")
    theta_mode = ("--mode", dict(default="auto", choices=["auto", "direct", "transformed"]))
    add(th, "eval", cmd_theta_eval, "--t", "--u", "--p", "--tol", "--side", theta_mode)
    threshold = ("--threshold", dict(type=positive, default=1e-10))
    add(th, "check-transform", cmd_theta_check, "--t", "--u", "--p", "--tol", "--side", threshold)

    ze = group("zeta")
    split_a = ("--A", dict(dest="split_a", type=positive, default=None))
    zeta_mode = ("--mode", dict(default="auto", choices=["direct", "accel", "auto"]))
    add(ze, "eval", cmd_zeta_eval, "--s", "--u", "--p", split_a, zeta_mode, "--tol", "--side")
    add(ze, "check", cmd_zeta_check, "--s", "--u", "--p", "--tol", "--side")
    grid_n = ("--grid-n", dict(type=at_least(1), default=8))
    fd_step = ("--fd-step", dict(type=positive, default=0.01))
    add(ze, "scan", cmd_zeta_scan, "--s", "--p", grid_n, fd_step, "--tol", "--side")

    cu = group("current")
    u = ("--u", dict(required=True))
    add(cu, "eval", cmd_current_eval, u, ("--grade-max", dict(type=int, default=None)), "--tol")
    grid_n = ("--grid-n", dict(type=at_least(1), default=4))
    add(cu, "scan", cmd_current_scan, ("--grade", dict(type=int, default=2)), grid_n, "--tol")

    torsion = ("--torsion", dict(required=True, help="p1/N,p2/N,..."))
    weight = ("--l", dict(type=int, required=True))
    nmax = ("--nmax", dict(type=int, default=None))
    add(group("eisenstein"), "eval", cmd_eisenstein_eval, torsion, weight, nmax, "--tol")

    p = add(group("algebra"), "verify", cmd_algebra_verify, config=False)
    p.add_argument("--m", type=at_least(1), default=2)
    p.add_argument("--n", type=at_least(0), default=4)
    p.add_argument("--hdim", type=at_least(1), default=2)
    p.add_argument("--nmax", type=at_least(0), default=5)

    p = add(group("bm"), "verify", cmd_bm_verify, config=False)
    p.add_argument("--d", type=int, default=1, choices=[1, 2])
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--quad", type=int, default=48)

    p = add(group("suite"), "run", cmd_suite_run, config=False)
    p.add_argument("--config", default=None)
    quickness = p.add_mutually_exclusive_group()
    quickness.add_argument("--quick", action="store_true", default=True)
    quickness.add_argument("--full", dest="quick", action="store_false")

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): nothing more can be shown
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # as a shell reports a writer killed by SIGPIPE
    except ConfigError as exc:
        emit({"error": exc.code, "message": str(exc)}, out=sys.stderr)
        return 2
    except PolylatError as exc:
        emit({"error": exc.code, "message": str(exc)}, out=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
