#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload traverse --seeds 1-10 [--trace 0]

For every seed it runs the command in BENCHMARK.json with
``--workload W --seed S --seconds <run_seconds> --trace T`` and parses the
last stdout line. It then prints, per metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to a third of the metric's bound. A spread above a third
of the bound is marked ``!``, one above the bound ``!!``. ``--out FILE``
also writes every result line as JSON lines.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_from(spec):
    out = []
    for part in spec.split(","):
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
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in seeds_from(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        t0 = time.time()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=900)
        took = time.time() - t0
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit code {proc.returncode}")
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        line["seed"] = seed
        results.append(line)
        print(f"seed {seed}: {took:.1f} s, correct {line['correct']}, "
              f"attempted {line['attempted']}, failed {line['failed']}", file=sys.stderr)

    if args.out:
        with open(args.out, "w") as f:
            for r in results:
                f.write(json.dumps(r) + "\n")

    names = list(results[0]["metrics"])
    print(f"{'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>9} {'bound/3':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.4f}" if bound else "-"
        flag = " !!" if bound and share > bound else " !" if bound and share > bound / 3 else ""
        print(f"{name:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {share:>9.4f} {third:>8}{flag}")


if __name__ == "__main__":
    main()
