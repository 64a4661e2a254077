"""Command-line entry point: one command per engine plus the aggregated suite.

Output is a stream of line-delimited JSON records (sorted keys, no
timestamps) so sequential runs are byte-identical; the scan commands
emit CSV for plot consumption.  Exit codes: 0 success / all checks pass,
1 verification failure or engine error (stable `error` code field),
2 usage or configuration error, 141 stdout closed by its reader.
"""

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from .bm import closedness_residual, sphere_integral, SLOT_CONVENTION
from .config import load_config
from .currents import (
    CONVENTION_NOTE,
    TorsionPoint,
    eisenstein_value,
    g_grade,
    g_total,
)
from .errors import ConfigError, PolylatError
from .lattice import SumLattice, dual_lattice, enumerate_shell
from .polygauss import VectorPolynomial
from .symalg import (
    gamma_vs_delta,
    ladder_counterexample,
    psi_n_matrix,
    splitting_grading_check,
    theta_ladder_check,
)
from .theta import theta_direct, theta_eval, theta_transformed
from .verify import check_flatness, run_suite
from .zeta import kzeta, kzeta_accelerated, smoothness_scan


def _json_default(obj):
    if isinstance(obj, complex):
        return {"im": obj.imag, "re": obj.real}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"unserializable {type(obj)!r}")


def emit(record, out=None):
    (out or sys.stdout).write(json.dumps(record, sort_keys=True, default=_json_default) + "\n")


def positive(text):
    """argparse type for an option that must be > 0; a ConfigError (exit 2) otherwise."""
    value = float(text)
    if not value > 0:
        raise ConfigError(f"expected a positive number, got {text!r}")
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
        except (ValueError, TypeError, AttributeError, IndexError, ZeroDivisionError) as exc:
            raise ConfigError(f"malformed input {text!r}: {exc}") from None

    return wrapped


@_input
def parse_rational_vector(text, rank):
    vec = [Fraction(x) for x in text.split(",")]
    if len(vec) != rank:
        raise ValueError(f"expected {rank} coordinates, got {len(vec)}")
    return vec


def parse_vector(text, rank):
    return [float(x) for x in parse_rational_vector(text, rank)]


@_input
def parse_complex(text):
    parts = text.split(",")
    return complex(float(parts[0]), float(parts[1]) if len(parts) > 1 else 0.0)


@_input
def parse_poly(text, rank):
    """'1' for the constant, else JSON {'e1,e2,..': [re, im], ...}."""
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


def cmd_lattice_info(args):
    cfg = load_config(args.config)
    if cfg.lattice_kind == "euclidean":
        frame = cfg.frame()
        emit(
            {
                "command": "lattice info",
                "kind": "euclidean",
                "rank": frame.rank,
                "gram_det": float(np.linalg.det(frame.gram)),
                "min_nonzero_q": float(np.min(frame.q_values(enumerate_shell(frame, 4.0 * frame.sigma_max)))),
            }
        )
        return 0
    data = cfg.data
    dl = dual_lattice(data)
    shells = enumerate_shell(data, 4.0 * math.pi * data.d)
    frame = SumLattice.from_abelian(data, "primal")
    checks = {
        "j_squared": "exact",
        "e_alternating": True,
        "positivity": True,
        "kappa_equals_abs_det_e": dl.kappa == abs(data.det_e()),
    }
    emit(
        {
            "command": "lattice info",
            "kind": "abelian",
            "d": data.d,
            "kappa": dl.kappa,
            "det_e": data.det_e(),
            "min_nonzero_q": float(np.min(frame.q_values(shells))),
            "convention_checks": checks,
            "convention_metadata": CONVENTION_NOTE,
        }
    )
    return 0


def cmd_theta_eval(args):
    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    u = parse_vector(args.u, frame.rank) if args.u else [0.0] * frame.rank
    res = theta_eval(frame, P, u, args.t, tol=cfg.tol(args.tol), mode=args.mode, threads=args.threads)
    emit(_theta_record(res, "theta eval", {"p": poly_spec(P), "t": args.t, "u": u, "mode": args.mode}))
    return 0


def cmd_theta_check(args):
    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    u = parse_vector(args.u, frame.rank) if args.u else [0.0] * frame.rank
    # truncation certificates must sit well below the comparison threshold
    tol = min(cfg.tol(args.tol), args.threshold / 100.0)
    a = theta_direct(frame, P, u, args.t, tol=tol, threads=args.threads)
    b = theta_transformed(frame, P, u, args.t, tol=tol, threads=args.threads)
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
    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    u = parse_vector(args.u, frame.rank) if args.u else [0.0] * frame.rank
    s = parse_complex(args.s)
    mode = {"direct": "direct", "accel": "accel", "auto": "auto"}[args.mode]
    zv = kzeta(
        frame, P, u, s,
        mode=mode,
        split_a=cfg.split_a(args.split_a),
        tol=cfg.tol(args.tol),
    )
    emit(
        {
            "command": "zeta eval",
            "inputs": {"p": poly_spec(P), "s": s, "u": u, "split_a": cfg.split_a(args.split_a), "mode": args.mode},
            "value": [complex(v) for v in zv.value],
            "regime": zv.regime,
            "error_bound": zv.error_bound,
        }
    )
    return 0


def cmd_zeta_check(args):
    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    u = parse_vector(args.u, frame.rank) if args.u else [1.0 / 3.0] * frame.rank
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
    cfg = load_config(args.config)
    frame = cfg.frame(side=args.side)
    P = parse_poly(args.p, frame.rank)
    s = parse_complex(args.s)
    n = args.grid_n
    grid = []
    for idx in np.ndindex(*([n] * frame.rank)):
        grid.append(tuple((i + 0.5) / n for i in idx))
    rows = smoothness_scan(frame, P, s, grid, fd_step=args.fd_step, tol=cfg.tol(args.tol))
    writer = csv.writer(sys.stdout)
    header = [f"u{i + 1}" for i in range(frame.rank)] + [
        "component",
        "value_re",
        "value_im",
        "grad_norm",
    ]
    writer.writerow(header)
    for row in rows:
        for comp in range(P.target_dim):
            val = row["value"][comp]
            writer.writerow(
                [f"{x:.12g}" for x in row["u"]]
                + [comp, f"{val.real:.15g}", f"{val.imag:.15g}", f"{row['grad_norm']:.15g}"]
            )
    return 0


def cmd_current_eval(args):
    cfg = load_config(args.config)
    if cfg.lattice_kind != "abelian":
        raise ConfigError("current eval needs abelian lattice data")
    u = parse_vector(args.u, cfg.data.rank)
    grades = g_total(
        cfg.data, u, cfg.grade_max(args.grade_max), tol=cfg.tol(args.tol), threads=args.threads
    )
    for n, cv in grades.items():
        emit(
            {
                "command": "current eval",
                "inputs": {"u": u, "grade": n},
                "components": {
                    f"{list(word)}|{list(ext)}": complex(v)
                    for (word, ext), v in sorted(cv.components.items())
                },
                "regime": cv.regime,
                "error_bound": cv.error_bound,
                "convention_metadata": cv.meta.get("convention"),
            }
        )
    return 0


def cmd_current_scan(args):
    cfg = load_config(args.config)
    if cfg.lattice_kind != "abelian":
        raise ConfigError("current scan needs abelian lattice data")
    n = args.grid_n
    writer = csv.writer(sys.stdout)
    rank = cfg.data.rank
    writer.writerow([f"u{i + 1}" for i in range(rank)] + ["component", "value_re", "value_im"])
    for idx in np.ndindex(*([n] * rank)):
        u = tuple((i + 0.5) / n for i in idx)
        cv = g_grade(cfg.data, u, args.grade, tol=cfg.tol(args.tol))
        for (word, ext), v in sorted(cv.components.items()):
            writer.writerow(
                [f"{x:.12g}" for x in u]
                + [f"{list(word)}|{list(ext)}", f"{v.real:.15g}", f"{v.imag:.15g}"]
            )
    return 0


def cmd_eisenstein_eval(args):
    cfg = load_config(args.config)
    if cfg.lattice_kind != "abelian":
        raise ConfigError("eisenstein eval needs abelian lattice data")
    x = TorsionPoint.from_rationals(parse_rational_vector(args.torsion, cfg.data.rank))
    n_max = args.nmax if args.nmax else args.l + 3
    cv = eisenstein_value(cfg.data, x, args.l, n_max, tol=cfg.tol(args.tol))
    emit(
        {
            "command": "eisenstein eval",
            "inputs": {"torsion": [str(v) for v in x.u], "l": args.l, "order": x.order},
            "components": {
                f"{list(word)}|{list(ext)}": complex(v)
                for (word, ext), v in sorted(cv.components.items())
            },
            "regime": cv.regime,
            "error_bound": cv.error_bound,
            "convention_metadata": cv.meta.get("convention"),
        }
    )
    return 0


def cmd_algebra_verify(args):
    failures = 0
    for n in range(0, args.n + 1):
        *_, bij = psi_n_matrix(args.m, n)
        emit({"identity": "psi_bijective", "m": args.m, "n": n, "status": "pass" if bij else "fail"})
        failures += not bij
    import random

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
    flat = check_flatness(n_forms=40)
    emit({"identity": "exterior_and_connection_flatness", "status": flat["status"], **flat["detail"]})
    failures += flat["status"] != "pass"
    return 0 if failures == 0 else 1


def cmd_bm_verify(args):
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
    data = None
    if args.config:
        cfg = load_config(args.config)
        if cfg.lattice_kind != "abelian":
            raise ConfigError("suite run needs abelian lattice data")
        data = cfg.data
    records = run_suite(data=data, quick=args.quick)
    failures = 0
    for rec in records:
        emit(rec)
        failures += rec["status"] != "pass"
    emit({"check": "summary", "status": "pass" if failures == 0 else "fail", "detail": {"failures": failures, "total": len(records)}})
    return 0 if failures == 0 else 1


# argparse takes "-1,0" for an option, so a negative real part needs the = form
S_HELP = "re,im; write a negative real part as --s=-1,0"


def build_parser():
    parser = argparse.ArgumentParser(prog="polylat", description=__doc__)
    parser.add_argument("--threads", type=at_least(1), default=None, help="worker threads (default: POLYLAT_THREADS or 1)")
    sub = parser.add_subparsers(dest="group", required=True)

    def add(group_parser, name, fn, config=True):
        p = group_parser.add_parser(name)
        if config:
            p.add_argument("config")
        p.set_defaults(fn=fn)
        return p

    lat = sub.add_parser("lattice").add_subparsers(dest="action", required=True)
    add(lat, "info", cmd_lattice_info)

    th = sub.add_parser("theta").add_subparsers(dest="action", required=True)
    for name, fn in (("eval", cmd_theta_eval), ("check-transform", cmd_theta_check)):
        p = add(th, name, fn)
        p.add_argument("--t", type=positive, required=True)
        p.add_argument("--u", default=None)
        p.add_argument("--p", default="1")
        p.add_argument("--tol", type=positive, default=None)
        p.add_argument("--side", default="dual", choices=["dual", "primal"])
        if name == "eval":
            p.add_argument("--mode", default="auto", choices=["auto", "direct", "transformed"])
        else:
            p.add_argument("--threshold", type=positive, default=1e-10)

    ze = sub.add_parser("zeta").add_subparsers(dest="action", required=True)
    p = add(ze, "eval", cmd_zeta_eval)
    p.add_argument("--s", required=True, help=S_HELP)
    p.add_argument("--u", default=None)
    p.add_argument("--p", default="1")
    p.add_argument("--A", dest="split_a", type=positive, default=None)
    p.add_argument("--mode", default="auto", choices=["direct", "accel", "auto"])
    p.add_argument("--tol", type=positive, default=None)
    p.add_argument("--side", default="dual", choices=["dual", "primal"])
    p = add(ze, "check", cmd_zeta_check)
    p.add_argument("--s", required=True, help=S_HELP)
    p.add_argument("--u", default=None)
    p.add_argument("--p", default="1")
    p.add_argument("--tol", type=positive, default=None)
    p.add_argument("--side", default="dual", choices=["dual", "primal"])
    p = add(ze, "scan", cmd_zeta_scan)
    p.add_argument("--s", required=True, help=S_HELP)
    p.add_argument("--p", default="1")
    p.add_argument("--grid-n", type=at_least(1), default=8)
    p.add_argument("--fd-step", type=positive, default=0.01)
    p.add_argument("--tol", type=positive, default=None)
    p.add_argument("--side", default="dual", choices=["dual", "primal"])

    cu = sub.add_parser("current").add_subparsers(dest="action", required=True)
    p = add(cu, "eval", cmd_current_eval)
    p.add_argument("--u", required=True)
    p.add_argument("--grade-max", type=int, default=None)
    p.add_argument("--tol", type=positive, default=None)
    p = add(cu, "scan", cmd_current_scan)
    p.add_argument("--grade", type=int, default=2)
    p.add_argument("--grid-n", type=at_least(1), default=4)
    p.add_argument("--tol", type=positive, default=None)

    ei = sub.add_parser("eisenstein").add_subparsers(dest="action", required=True)
    p = add(ei, "eval", cmd_eisenstein_eval)
    p.add_argument("--torsion", required=True, help="p1/N,p2/N,...")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tol", type=positive, default=None)

    al = sub.add_parser("algebra").add_subparsers(dest="action", required=True)
    p = add(al, "verify", cmd_algebra_verify, config=False)
    p.add_argument("--m", type=at_least(1), default=2)
    p.add_argument("--n", type=at_least(0), default=4)
    p.add_argument("--hdim", type=at_least(1), default=2)
    p.add_argument("--nmax", type=at_least(0), default=5)

    bm = sub.add_parser("bm").add_subparsers(dest="action", required=True)
    p = add(bm, "verify", cmd_bm_verify, config=False)
    p.add_argument("--d", type=int, default=1, choices=[1, 2])
    p.add_argument("--r", type=float, default=0.5)
    p.add_argument("--quad", type=int, default=48)

    su = sub.add_parser("suite").add_subparsers(dest="action", required=True)
    p = add(su, "run", cmd_suite_run, config=False)
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
