#!/usr/bin/env python3
"""Repeat mode of the campaign benchmark.

Runs one workload N times, each with another seed, through the command in
BENCHMARK.json at its run_seconds, and records every metric's median and
quartile spread (the distance between the first and third quartile, as a
share of the median). End-to-end metrics are compared with their bound: a spread above
a third of the bound is flagged. The summary is printed and written to
.bench_out/repeat-<workload>-trace<t>.json.

Run from the repository root:

    python3 campaign-bench/repeat.py --workload suite-local --runs 10
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1, help="first seed; run i uses seed0 + i")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    specs = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in specs}

    values = {}
    for i in range(args.runs):
        seed = args.seed0 + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: output checks failed\n{proc.stderr}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items() if n in bounds),
            flush=True)

    summary = {}
    print(f"\n{'metric':<40} {'median':>14} {'spread':>8} {'bound':>6}  flag")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "above bound/3"
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": vals}
        print(f"{name:<40} {med:>14.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}  {flag}")

    out = pathlib.Path(".bench_out")
    out.mkdir(exist_ok=True)
    path = out / f"repeat-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps({"workload": args.workload, "runs": args.runs,
                                "seed0": args.seed0, "seconds": seconds,
                                "trace": args.trace, "metrics": summary}, indent=1))
    print(f"\nwritten to {path}")


if __name__ == "__main__":
    main()
