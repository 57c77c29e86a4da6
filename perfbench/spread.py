#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

  python3 perfbench/spread.py --workload <name> [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed+1, ...) at the
run_seconds of BENCHMARK.json, then prints, per end-to-end metric, the
median and the spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. A spread above a third of its bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for k in range(a.runs):
        seed = a.first_seed + k
        r = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             a.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        if r.returncode != 0:
            sys.exit(f"seed {seed}: exit {r.returncode}\n{r.stderr}")
        res = json.loads(r.stdout.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: correctness checks failed\n{r.stdout}")
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    flagged = 0
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        flag = spread > m["bound"] / 3
        flagged += flag
        print(f"{m['name']:>22} median {med:12.6g} {m['unit']:<5} spread "
              f"{spread:7.4f}  bound {m['bound']}" + ("  <-- over bound/3"
                                                    if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
