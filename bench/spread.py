"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Runs bench/run.py once per seed, one run at a time, and prints for each
metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median.
The bounds of BENCHMARK.json are compared against this spread.
"""

import argparse
import json
from pathlib import Path
import statistics
import subprocess
import sys

BENCH = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    config = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or config["run_seconds"]
    values, failed = {}, 0
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            failed += 1
            continue
        lines = proc.stdout.strip().splitlines()
        record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
        failed += not result["correct"]
        line = {k: round(v["value"], 6) for k, v in result["metrics"].items()}
        kinds = {k: round(v[1], 3) for k, v in record["p50_ms_by_kind"].items()}
        print(f"seed {seed}: correct={result['correct']} {json.dumps(line)} "
              f"p50_ms_by_kind={json.dumps(kinds)} raw={json.dumps(record['raw'])} "
              f"load={record['loadavg_1m_start']:.2f}", flush=True)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    for k, xs in values.items():
        if len(xs) < 2:
            continue  # quartiles need two values
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(f"{k:>12}: median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
              f"  bound {bounds[k]}, spread/bound {spread / bounds[k]:.2f}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
