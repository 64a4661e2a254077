"""polylat benchmark: one seeded workload, timed from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the source tree
in ./src; nothing is installed and nothing under src/ is touched.  The
workload runs in a fresh single-threaded process (see worker.py), its
outputs are checked by an oracle after the timed loop, and the last line
of stdout is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
every timing scaled to the reference speed of refspeed.py; with
--trace 1 the workload runs twice more, untraced and then traced over the
same ops, and the metrics are the per-layer ones (unscaled).  The line
before the result is a JSON record of the run (seed, versions, load,
thread environment, sample counts, failures, unscaled timings).  See
bench/README.md.
"""

import argparse
from importlib import metadata
import json
import os
from pathlib import Path
import platform
import statistics
import subprocess
import sys
import time

import refspeed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
# cli-cold: eight of its eleven commands are short, so its 75th percentile
# would sit on the edge between the short and the long commands and jump
# from run to run, and the 70th on the short group's second-slowest
# sample; the 65th lands on its slowest command (bm verify).
TAIL_PERCENTILE = {"theta-lattice": 98, "zeta-continuation": 90, "current-grades": 85, "cli-cold": 65}
SETUP_SAMPLES = 9
DEADLINE_S = 170.0  # the whole run, set-up and oracle included

THREAD_ENV = {
    "POLYLAT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

PER_LAYER_TIMES = (
    "lattice.box_shell", "lattice.SumLattice.points", "lattice.SumLattice.q_values",
    "lattice.SumLattice.char_values", "lattice.SumLattice.char_values_exact",
    "lattice.SumLattice.from_abelian", "sums.map_shells", "sums.CompensatedSum.add",
    "sums.gaussian_tail", "polygauss.VectorPolynomial.evaluate_many",
    "polygauss.GaussPolyFactor.poly_eval_many", "polygauss.gaussian_ft",
    "incgamma.upper_gamma", "theta.theta_direct", "theta.theta_transformed",
    "zeta.kzeta_accelerated", "zeta.kzeta_direct", "zeta.smoothness_scan",
    "currents.g_abk", "currents.eisenstein_value", "torus.double_contraction_forms",
    "symalg.psi_n_matrix", "symalg.gamma_vs_delta", "symalg.theta_ladder_check",
    "bm.sphere_integral", "config.load_config", "cli.main", "bench.op",
)
PER_LAYER_CALLS = (
    "lattice.box_shell", "lattice.SumLattice.from_abelian", "sums.map_shells",
    "sums.CompensatedSum.add", "sums.gaussian_tail", "sums.power_tail",
    "polygauss.gaussian_ft", "incgamma.upper_gamma", "zeta.kzeta_accelerated",
    "currents.g_grade", "currents.g_abk", "currents.HodgeFrame",
    "torus.double_contraction_forms",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env():
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
    return left


def call_worker(args, deadline):
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining(deadline)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_sample(workload, seed, deadline):
    """Seconds from starting a fresh interpreter to being ready for the first op."""
    if workload == "cli-cold":
        cmd = [sys.executable, "-c", "import polylat.cli"]
    else:
        cmd = [sys.executable, str(BENCH / "worker.py"), "setup", workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE) as proc:
        try:
            if workload == "cli-cold":
                proc.wait(timeout=remaining(deadline))
            else:
                line = proc.stdout.readline()
                if line.strip() != b"ready":
                    raise BenchError(f"set-up of {workload} failed")
            elapsed = time.perf_counter() - start
            proc.wait(timeout=remaining(deadline))
        except BaseException:
            proc.kill()
            raise
    if proc.returncode != 0:
        raise BenchError(f"set-up of {workload} exited {proc.returncode}")
    return elapsed


def import_breakdown(deadline, samples=3):
    """import.* seconds from `python -X importtime -c "import polylat.cli"`.

    numpy and scipy are the outermost entries of those packages (numpy
    modules first imported by scipy count as scipy); polylat is the rest
    of the polylat.cli import.
    """
    runs = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import polylat.cli"],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True, timeout=remaining(deadline),
        )
        if proc.returncode != 0:
            raise BenchError(f"import of polylat.cli failed: {proc.stderr[-500:]}")
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text):
    entries = []  # (depth, module, cumulative us), children before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cum)))
    parent = [-1] * len(entries)
    pending = []
    for i, (depth, _, _) in enumerate(entries):
        while pending and entries[pending[-1]][0] > depth:
            parent[pending.pop()] = i
        pending.append(i)

    def lib(name):
        top = name.split(".", 1)[0]
        return top if top in ("numpy", "scipy") else None

    totals = {"numpy": 0, "scipy": 0}
    for i, (_, name, cum) in enumerate(entries):
        if lib(name) is None:
            continue
        p = parent[i]
        while p >= 0 and lib(entries[p][1]) is None:
            p = parent[p]
        if p < 0:  # outermost numpy/scipy entry: charge it to its library
            totals[lib(name)] += cum

    numpy_s, scipy_s = totals["numpy"] / 1e6, totals["scipy"] / 1e6
    cli = [cum for _, name, cum in entries if name == "polylat.cli"]
    return {
        "import.numpy_s": numpy_s,
        "import.scipy_special_s": scipy_s,
        "import.polylat_s": cli[-1] / 1e6 - numpy_s - scipy_s,
    }


def tail(latencies, percentile):
    """(value, percentile, samples beyond) by nearest rank.

    The workload's percentile when at least 10 samples lie beyond it,
    else the highest lower one that has them, down to the median.
    """
    xs = sorted(latencies)
    n = len(xs)
    for p in [percentile] + [q for q in (95, 90, 85, 75, 70) if q < percentile] + [50]:
        rank = max(1, -(-p * n // 100))
        if n - rank >= 10 or p == 50:
            return xs[rank - 1], p, n - rank


def throughput(lat, groups):
    """ops per second of the run's mix of ops, each at its group's median time.

    The costs of the ops spread over two orders of magnitude, so the mean
    over the whole loop is carried by the few heaviest ops and moves with
    every slow spell of the host during them.  Ops of
    about the same cost share a group (theta-lattice: rank, P and t
    stratum; cli-cold: the command), and every op is counted at the
    median time of its group.  The glue between ops is left out.
    """
    by_group = {}
    for group, ns in zip(groups, lat):
        by_group.setdefault(group, []).append(ns)
    busy_ns = sum(len(v) * statistics.median(v) for v in by_group.values())
    return len(lat) / (busy_ns / 1e9), len(by_group)


def end_to_end(workload, run, setup, setup_ref):
    """The end-to-end metrics, every timing at the reference speed (refspeed.py)."""
    raw = run["latency_ns"]
    lat = [ns * f for ns, f in zip(raw, refspeed.scales(run["ref"], len(raw)))]
    tail_ns, tail_p, beyond = tail(lat, TAIL_PERCENTILE[workload])
    ops_per_s, groups = throughput(lat, run["groups"])
    setup_scale = refspeed.NOMINAL_NS / statistics.median(setup_ref)
    metrics = {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (statistics.median(lat) / 1e6, "ms"),
        "op_tail_ms": (tail_ns / 1e6, "ms"),
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "peak_rss_mb": (run["maxrss_kb"] / 1024.0, "MB"),
    }
    by_kind = {}
    for kind, ns in zip(run["kinds"], lat):
        by_kind.setdefault(kind, []).append(ns)
    detail = {
        "tail_percentile": tail_p,
        "tail_samples_beyond": beyond,
        "samples": len(lat),
        "throughput_groups": groups,
        "p50_ms_by_kind": {k: [len(v), statistics.median(v) / 1e6] for k, v in sorted(by_kind.items())},
        "raw": {
            "ref_samples": len(run["ref"]),
            "ref_median_ns": statistics.median(ns for _, ns in run["ref"]),
            "setup_ref_median_ns": statistics.median(setup_ref),
            "ops_per_s": throughput(raw, run["groups"])[0],
            "ops_per_s_whole_loop": len(raw) / (run["loop_ns"] / 1e9),
            "op_p50_ms": statistics.median(raw) / 1e6,
            "op_tail_ms": tail(raw, TAIL_PERCENTILE[workload])[0] / 1e6,
            "setup_s": statistics.median(setup),
        },
    }
    return metrics, detail


def per_layer(trace, untraced_ns, traced_ns, imports, host_ratio):
    """The per-layer metrics.  `host_ratio` is the reference loop's median time
    in the traced loop over that in the untraced one (refspeed.py), so that
    trace.overhead_frac leaves out the host's drift between the two loops."""
    names = trace["names"]
    self_s = {n: trace["self_ns"][i] / 1e9 for i, n in enumerate(names)}
    calls, counts = trace["calls"], trace["counts"]
    m = {}
    for n in PER_LAYER_TIMES:
        m[f"{n}.self_s"] = (self_s[n], "s")
    for n in PER_LAYER_CALLS:
        m[f"{n}.calls"] = (calls[n], "count")
    ug_calls = calls["incgamma.upper_gamma"]
    m["incgamma.upper_gamma.ns_per_call"] = (
        self_s["incgamma.upper_gamma"] * 1e9 / ug_calls if ug_calls else 0.0, "ns")
    m["lattice.box_shell.points"] = (counts["lattice.box_shell.points"], "count")
    m["polygauss.VectorPolynomial.evaluate_many.terms"] = (
        counts["polygauss.VectorPolynomial.evaluate_many.terms"], "count")
    m["theta.theta_direct.shells"] = (counts["theta.theta_direct.shells"], "count")
    m["theta.theta_transformed.shells"] = (counts["theta.theta_transformed.shells"], "count")
    gabk = calls["currents.g_abk"]
    m["currents.g_abk.vanishing_frac"] = (counts["currents.g_abk.vanishing"] / gabk if gabk else 0.0, "1")
    for k, v in imports.items():
        m[k] = (v, "s")
    self_sum = sum(trace["self_ns"]) / 1e9
    m["trace.wall_s"] = (traced_ns / 1e9, "s")
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.overhead_frac"] = (traced_ns / untraced_ns / host_ratio - 1.0, "1")
    detail = {
        "spans": trace["spans"],
        "spans_kept": trace["spans_kept"],
        "self_coverage": self_sum / (traced_ns / 1e9),
    }
    return m, detail


def versions():
    out = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            out[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            out[pkg] = None
    return out


def verdict_counts(verdicts):
    failed = [(i, note) for i, (ok, note) in enumerate(verdicts) if not ok]
    return len(verdicts), failed


def measure(workload, seed, seconds, trace, units=None, setup_samples=SETUP_SAMPLES):
    """Run one benchmark invocation; returns (result line, record)."""
    deadline = time.monotonic() + DEADLINE_S
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "versions": versions(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
        "thread_env": THREAD_ENV,
    }
    budget = ["--units", str(units)] if units else ["--seconds", str(seconds)]
    if not trace:
        setup, setup_ref = [], []
        for _ in range(setup_samples):
            setup_ref.append(refspeed.sample_ns())
            setup.append(setup_sample(workload, seed, deadline))
        run = call_worker(["run", workload, str(seed), *budget], deadline)
        metrics, detail = end_to_end(workload, run, setup, setup_ref)
        record.update(detail, setup_samples_s=setup, units=run["units"])
    else:
        run = call_worker(["run", workload, str(seed), *budget], deadline)
        trace_dir = OUT / workload
        traced = call_worker(
            ["run", workload, str(seed), "--units", str(run["units"]), "--trace", str(trace_dir)], deadline
        )
        # the wrappers must not change a single bit of any output
        differ = [i for i, (a, b) in enumerate(zip(run["digests"], traced["digests"])) if a != b]
        for i in differ:
            run["verdicts"][i] = (False, "traced output differs from the untraced one")
        record["traced_output_mismatches"] = len(differ)
        refs = [statistics.median(ns for _, ns in r["ref"]) for r in (run, traced)]
        metrics, detail = per_layer(
            traced["trace"], run["loop_ns"], traced["loop_ns"], import_breakdown(deadline), refs[1] / refs[0]
        )
        record.update(detail, units=run["units"], spans_file=str(trace_dir.relative_to(ROOT)),
                      ref_median_ns=refs[1], untraced_ref_median_ns=refs[0],
                      overhead_frac_unscaled=traced["loop_ns"] / run["loop_ns"] - 1.0)
    attempted, failed = verdict_counts(run["verdicts"])
    record["failed_frac"] = len(failed) / attempted if attempted else 1.0
    record["failures"] = [{"op": i, "kind": run["kinds"][i], "note": note} for i, note in failed[:10]]
    record["loadavg_1m_end"] = os.getloadavg()[0]
    result = {
        "correct": not failed and attempted > 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polylat" / "__init__.py").is_file():
        print(f"bench: no polylat source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        result, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
