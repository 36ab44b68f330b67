#!/usr/bin/env python3
"""Run workloads back to back over several seeds and report each metric's spread.

usage: python3 pclbench/steadiness.py [--workloads a,b] [--seeds N] [--first-seed S]
                                      [--seconds S] [--trace 0|1] [--out FILE]

For every workload it runs `run.py` once per seed (seeds S, S+1, ...), then
prints, per metric, the median, the first and third quartiles (Python's
statistics.quantiles(values, n=4)), and the spread (Q3 - Q1) / median next to
the bound from BENCHMARK.json. Each run's result line is appended to --out
(JSON lines) when given. Exit status 1 if any run was not correct or any
bounded spread exceeds a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1]), wall


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, wall = run_once(workload, seed, args.seconds, args.trace)
            walls.append(wall)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: NOT CORRECT ({result['failed']} failed)")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        print(f"\n{workload}: {args.seeds} seeds from {args.first_seed}, --seconds {args.seconds}, --trace {args.trace}; "
              f"wall per run {min(walls):.0f}-{max(walls):.0f} s")
        print(f"  {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
                ok = False
            print(f"  {name:<32} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
