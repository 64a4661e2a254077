"""Workload process: one fresh interpreter per set-up sample, run or traced run.

    worker.py setup WORKLOAD SEED
        build the workload, print "ready" and exit (timed from outside).
    worker.py run WORKLOAD SEED (--seconds S | --units K) [--trace DIR]
        run the timed loop, then the oracle; print one JSON line.
    worker.py cli-traced SUMMARY -- ARGV...
        install the span wrappers, run polylat.cli.main(ARGV) and write
        the span summary (JSON) and the spans (.npz) next to SUMMARY.

Only run.py starts this program; its environment (PYTHONPATH, thread
pinning) comes from there.
"""

import argparse
import hashlib
import json
import os
from pathlib import Path
import resource
import sys
import time

sys.path.insert(0, str(Path(__file__).resolve().parent))

import refspeed  # noqa: E402
from workloads import CliCold, make  # noqa: E402


def fingerprint(obj, h=None):
    """Hash of a result, exact to the bit (arrays by their bytes)."""
    top = h is None
    h = h or hashlib.sha1()
    if hasattr(obj, "tobytes"):
        h.update(obj.tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            fingerprint(item, h)
        h.update(b"]")
    else:
        h.update(repr(obj).encode())
    return h.hexdigest() if top else None


def timed_loop(workload, seconds=None, units=None, tracer=None):
    """Run whole units until `seconds` have passed or `units` are done.

    Before an op, once refspeed.EVERY_NS have passed since the last one,
    a reference sample of the host's speed is taken (outside the op's
    time) and kept as (index of the op, ns).  The loop is pinned to one
    CPU, which a CLI command's process inherits, so that the samples and
    the ops run on the same vCPU: the two vCPUs of the host are often
    slowed by different amounts at the same moment.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    clock = time.perf_counter_ns
    done, latency, ref = [], [], []
    start = clock()
    deadline = None if seconds is None else start + int(seconds * 1e9)
    n_units = 0
    sampled = start - refspeed.EVERY_NS
    for unit in workload.units():
        for op in unit:
            if clock() - sampled >= refspeed.EVERY_NS:
                ref.append((len(done), refspeed.sample_ns()))
                sampled = clock()
            if tracer:
                tracer.begin_op(len(done))
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed op by the oracle
                result = exc
            latency.append(clock() - t0)
            if tracer:
                tracer.end_op()
            done.append((op, result))
        n_units += 1
        if units is not None and n_units >= units:
            break
        if deadline is not None and clock() >= deadline:
            break
    elapsed = clock() - start
    os.sched_setaffinity(0, cpus)
    return done, latency, n_units, elapsed, ref


def run(args):
    workload = make(args.workload, args.seed, trace_dir=args.trace)
    tracer = None
    if args.trace:
        from tracing import Tracer, install

        Path(args.trace).mkdir(parents=True, exist_ok=True)
        tracer = Tracer()
        if args.workload != CliCold.name:
            install(tracer)
    done, latency, n_units, loop_ns, ref = timed_loop(workload, args.seconds, args.units, tracer)
    who = resource.RUSAGE_CHILDREN if args.workload == CliCold.name else resource.RUSAGE_SELF
    maxrss_kb = resource.getrusage(who).ru_maxrss
    record = {
        "latency_ns": latency,
        "kinds": [op.kind for op, _ in done],
        "groups": [op.group for op, _ in done],
        "ref": ref,
        "units": n_units,
        "loop_ns": loop_ns,
        "maxrss_kb": maxrss_kb,
        "digests": [
            fingerprint(workload.digest(r)) if not isinstance(r, BaseException) else repr(r)
            for _, r in done
        ],
    }
    if tracer is None:
        record["verdicts"] = workload.check(done)
    elif args.workload == CliCold.name:
        record["trace"] = merge_cli_spans(tracer, done)
    else:
        tracer.write(Path(args.trace) / f"{args.workload}.npz")
        record["trace"] = tracer.summary()
    print(json.dumps(record))


def merge_cli_spans(tracer, done):
    """One op span per command process; its children come from the process's
    own summary, so the op's self time is the part no wrapped call covers
    (interpreter start, imports, exit)."""
    self_ns = [0.0] * len(tracer.names)
    calls = dict(tracer.calls)
    counts = dict(tracer.counts)
    spans = kept = 0
    for op, res in done:
        start, end, path = res[3]
        with open(path) as fh:
            child = json.load(fh)
        self_ns[0] += (end - start) - child["top_ns"]
        for k, v in enumerate(child["self_ns"]):
            self_ns[k] += v
        for key, v in child["calls"].items():
            calls[key] += v
        for key, v in child["counts"].items():
            counts[key] += v
        spans += child["spans"] + 1
        kept += child["spans_kept"]
    return {"self_ns": self_ns, "names": tracer.names, "calls": calls, "counts": counts,
            "spans": spans, "spans_kept": kept}


def cli_traced(summary, argv):
    """Bootstrap for one traced CLI command."""
    import polylat.cli
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.op_id = 0
    try:
        code = polylat.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        tracer.write(Path(summary).with_suffix(".npz"))
        Path(summary).write_text(json.dumps(tracer.summary()))
    return code


def setup(args):
    make(args.workload, args.seed)
    print("ready", flush=True)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "cli-traced":
        sep = argv.index("--")
        return cli_traced(argv[1], argv[sep + 1 :])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["setup", "run"])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--units", type=int, default=None)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        setup(args)
    else:
        run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
