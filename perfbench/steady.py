#!/usr/bin/env python3
"""Steadiness report: reruns one workload in fresh processes and reports
the spread of every metric.

Usage, from the repository root:

    python3 perfbench/steady.py --workload fuzz [--runs 10] [--seconds N] [--trace 0]

Run i (from 1) is `python3 perfbench/run.py ... --seed i`, in a fresh
process, with --seconds defaulting to BENCHMARK.json's run_seconds. For each
metric it prints the median, the first and third quartiles (as
statistics.quantiles(values, n=4) gives them), the quartile spread
(q3 - q1) / median and the range (max - min) / median. An end-to-end
metric whose quartile spread exceeds its bound in BENCHMARK.json is
flagged WIDE; one whose range exceeds it is marked "range". The exit code
is 1 when a run fails or a metric is flagged WIDE.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main() -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", choices=["0", "1"], default="0")
    args = p.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    failures = 0
    for i in range(args.runs):
        seed = i + 1
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        ok = proc.returncode == 0 and result.get("correct") is True
        failures += not ok
        summary = ", ".join(f"{k}={v['value']:.6g}" for k, v in result.get("metrics", {}).items()
                            if k in bounds)
        print(f"run {i + 1}/{args.runs} seed {seed}: exit {proc.returncode} "
              f"correct={result.get('correct')} failed={result.get('failed')} {summary}",
              flush=True)
        for name, metric in result.get("metrics", {}).items():
            values.setdefault(name, []).append(metric["value"])

    wide = 0
    print(f"\n{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'rng/med':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        iqr = (q3 - q1) / med if med else 0.0
        rng = (max(vals) - min(vals)) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and iqr > bound:
            flag = "WIDE"
            wide += 1
        elif bound is not None and rng > bound:
            flag = "range"
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {iqr:>8.4f} {rng:>8.4f} "
              f"{'' if bound is None else bound:>6} {flag}")
    return 1 if failures or wide else 0


if __name__ == "__main__":
    sys.exit(main())
