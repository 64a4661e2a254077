"""Smoke self-test of the benchmark at tiny sizes (about two minutes).

    python3 bench/selftest.py

Checks that
  * BENCHMARK.json names exactly the metrics run.py emits, with their units;
  * the README "## CLI" block still lists the commands of cli-cold;
  * one unit of every workload, untraced and traced, gives a correct
    result line carrying every end-to-end or per-layer metric;
  * a result corrupted here, after the timed loop, makes the oracle
    count a failure (failed_frac > 0), so the check fires;
  * without the source tree, run.py exits non-zero and prints no result.
"""

import json
from pathlib import Path
import shutil
import subprocess
import sys
import tempfile

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(cond, what):
    if not cond:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}", flush=True)


def readme_commands():
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    out = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].split(">", 1)[0].split()
        if line and line[0] == "polylat":
            out.append(tuple(line[1:]))
    return tuple(out)


def check_metrics(result, declared, label):
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{label}: every declared metric, with its unit")
    expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
           f"{label}: every value is a number")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: oracle passes")


def check_spans(name, result, record):
    """Self times derived from the written spans equal the reported ones."""
    import numpy as np

    import tracing

    expect(record["spans_kept"] == record["spans"], f"{name}: every span kept at this size")
    with np.load(ROOT / record["spans_file"] / f"{name}.npz") as f:
        names = list(f["names"])
        own = tracing.self_times(f["name"], f["start"], f["end"], f["parent"], len(names))
    reported = {k[: -len(".self_s")]: v["value"] for k, v in result["metrics"].items()
                if k.endswith(".self_s") and not k.startswith("import.")}
    worst = max(abs(own[names.index(n)] / 1e9 - v) for n, v in reported.items())
    expect(worst < 1e-6, f"{name}: self times from the span file match ({worst:.1e} s)")


def corrupt(name, done):
    """Perturb one output the way a wrong engine would."""
    op, res = done[0]
    if name == "theta-lattice":
        done[0] = (op, (res[0], res[1] * (1 + 1e-6)) + res[2:])
    elif name == "zeta-continuation":
        done[0] = (op, res * (1 + 1e-6))
    elif name == "current-grades":
        cv = res[2]
        key = next(iter(cv.components))
        cv.components[key] += 1e-5
    else:
        done[0] = (op, (res[0], res[1] + b" ") + res[2:])


def main():
    expect(readme_commands() == workloads.README_COMMANDS, "cli-cold commands match the README CLI block")
    for name in run.WORKLOADS:
        for trace, declared in ((False, CONFIG["end_to_end"]), (True, CONFIG["per_layer"])):
            result, record = run.measure(name, seed=1, seconds=None, trace=trace, units=1, setup_samples=1)
            check_metrics(result, declared, f"{name} trace={int(trace)}")
            if trace:
                cov = record["self_coverage"]
                expect(0.9 < cov <= 1.0 + 1e-9, f"{name}: self times add up to the traced wall ({cov:.4f})")
                if name != "cli-cold":
                    check_spans(name, result, record)
        workload = workloads.make(name, seed=1)
        if name == "cli-cold":
            workload.commands = [("lattice", "info", "configs/tau_i.cfg")]
        done = worker.timed_loop(workload, units=1)[0]
        if name == "cli-cold":
            done.append((done[0][0], done[0][1]))
        corrupt(name, done)
        attempted, failed = run.verdict_counts(workload.check(done))
        expect(failed and len(failed) / attempted > 0, f"{name}: a corrupted output makes failed_frac > 0")
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH, Path(tmp) / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-cold", "--seed", "1", "--seconds", "1"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and not proc.stdout.strip(), "without src/, run.py fails and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
