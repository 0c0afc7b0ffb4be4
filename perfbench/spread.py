#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

    python3 perfbench/spread.py --workload jobsched-1040 --seeds 1-5

Each seed is one untraced run of BENCHMARK.json's command for its
run_seconds. For each end-to-end metric this prints the median of the
per-seed values and the spread (interquartile distance as a share of the
median, from statistics.quantiles(values, n=4)), next to the metric's
bound. It also reads back each run's record from .perfbench/ and checks
that it holds the same figures as the run's result line. Run from the
repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    failures = 0
    for seed in seeds_of(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: exit code {proc.returncode}", file=sys.stderr)
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failures += 1
        record_path = f".perfbench/{args.workload}-seed{seed}-trace0.json"
        with open(record_path) as f:
            record = json.load(f)
        if (record["metrics"], record["attempted"], record["failed"]) != (
                result["metrics"], result["attempted"], result["failed"]):
            print(f"seed {seed}: {record_path} differs from the result line",
                  file=sys.stderr)
            failures += 1
        row = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            row.append(f"{name}={m['value']:.6g}")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(row), flush=True)
    for name, vs in values.items():
        if len(vs) < 2:
            continue
        q1, _, q3 = statistics.quantiles(vs, n=4)
        med = statistics.median(vs)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
        print(f"{name:16s} median {med:.6g}  spread {spread:.4f}  bound {bound}  {flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
