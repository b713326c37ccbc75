"""Run the benchmark once per seed and summarise each metric's spread.

Usage:
    python3 perfbench/spread.py --workloads cli-small,files-large --seeds 1-10 [--out runs.jsonl]

For every workload and end-to-end metric it prints the median and the first
and third quartiles (statistics.quantiles, n=4) of the runs' values, and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --out, each run's JSON result is appended to that file as one line.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values, failed, attempted = {}, 0, 0
        for seed in seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            took = perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, "run_s": took, **result}) + "\n")
            failed += result["failed"]
            attempted += result["attempted"]
            print(f"{workload} seed {seed}: {took:.1f} s, failed {result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: failed {failed}/{attempted}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else "WIDE" if spread > bound else ">bound/3"
            print(f"  {name:40s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
