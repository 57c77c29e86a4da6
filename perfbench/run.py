#!/usr/bin/env python3
"""Build and run the repository benchmark.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds hlp_perfbench (CMake, Release, into .bench_build/ at
the repository root; later runs rebuild incrementally) and runs one workload
in a fresh process. Every line it prints comes from the benchmark; the last
one is the JSON result. Records and traces land in .bench_out/.

--self-test runs every workload at toy size (seed_sweep too, which is not
in BENCHMARK.json) and checks that each metric BENCHMARK.json names is
emitted with its unit, that two back-to-back runs give the same results
digest and quality metrics, that the traced run writes a Chrome trace, and
that a deliberately corrupted result is counted as failed.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "hlp_perfbench")
QUALITY = ("power_mw", "luts", "power_pct_of_lopass")
# Every workload hlp_perfbench knows. seed_sweep is left out of
# BENCHMARK.json (its wall_s drifts too far on a shared host) but can be run
# by hand.
WORKLOADS = ("cold_bind", "seed_sweep", "table3_warm")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("run.py: no library sources next to perfbench/ "
                 "(expected ../CMakeLists.txt and ../src)")
    steps = [["cmake", "--build", BUILD, "--target", "hlp_perfbench", "-j", "4"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        # Configure once; the build step re-configures when a CMakeLists changes.
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(cmd))


def code_version():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def bench_args(workload, seed, seconds, trace, extra=()):
    return [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--out-dir", OUT, "--git-sha", code_version(), *extra]


def run_once(args):
    """Run the benchmark; return (exit code, parsed last stdout line)."""
    r = subprocess.run(args, capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None)


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []

    def expect(cond, what):
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        runs = []
        for _ in range(2):
            code, res = run_once(bench_args(w, 7, 1, 0, ["--toy"]))
            with open(os.path.join(OUT, f"{w}-seed7-trace0.json")) as fh:
                runs.append((code, res, json.load(fh)))
        (c1, r1, rec1), (c2, r2, rec2) = runs
        expect(c1 == 0 and c2 == 0 and r1["correct"] and r2["correct"],
               f"{w}: toy runs exit 0 and pass their checks")
        for m in spec["end_to_end"]:
            got = r1["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{w}: emits {m['name']} in {m['unit']}")
        expect(rec1["digest"] == rec2["digest"],
               f"{w}: results digest repeats ({rec1['digest']})")
        expect(all(r1["metrics"][q] == r2["metrics"][q] for q in QUALITY),
               f"{w}: quality metrics repeat")

        code, res = run_once(bench_args(w, 7, 1, 1, ["--toy"]))
        expect(code == 0 and res["correct"], f"{w}: traced toy run passes")
        for m in spec["per_layer"]:
            got = res["metrics"].get(m["name"])
            expect(got is not None and got["unit"] == m["unit"],
                   f"{w}: traced run emits {m['name']} in {m['unit']}")
        with open(os.path.join(OUT, f"{w}-seed7.trace.json")) as fh:
            events = json.load(fh)["traceEvents"]
        expect(len(events) > 0, f"{w}: Chrome trace has {len(events)} spans")

        code, res = run_once(bench_args(w, 7, 1, 0, ["--toy", "--corrupt"]))
        expect(code == 0 and res["failed"] >= 1 and not res["correct"],
               f"{w}: a corrupted result counts as failed")
    print("self-test " + ("passed" if not problems else
                          f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        return self_test()
    if not a.workload:
        ap.error("--workload is required")
    # Replace this process, so the benchmark's stdout is ours unchanged.
    args = bench_args(a.workload, a.seed, a.seconds, a.trace)
    os.execv(args[0], args)


if __name__ == "__main__":
    sys.exit(main())
