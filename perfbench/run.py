#!/usr/bin/env python3
"""Build and run the repository benchmark (NOTES.md explains it).

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload admit-durable --selfcheck 10
    python3 perfbench/run.py --workload analyze-hot --seconds 2 --corrupt

The first form builds perfbench/ (a Go module that imports the repo
through a replace directive) into .bench_build/ and runs it once; the
last line of its output is the result JSON. --selfcheck N runs N seeds
in a row and prints each metric's median, quartiles and spreads next to
the bounds in BENCHMARK.json. --corrupt alters one recorded output
before the checks, so the run must exit nonzero.

Everything the build and the runs write stays under .bench_build/ in the
checkout: the Go build cache, the binary, data dirs and span files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "perfbench")
WORKLOADS = ("analyze-cold", "analyze-hot", "admit-durable")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175

# The benchmark measures the Go runtime at its defaults.
RUNTIME_KNOBS = ("GOGC", "GOMAXPROCS", "GOMEMLIMIT", "GODEBUG")


def build():
    """Compile the benchmark from the checkout's sources, offline."""
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOWORK="off",
        GOFLAGS="",
        GOENV="off",
    )
    os.makedirs(BUILD, exist_ok=True)
    try:
        done = subprocess.run(["go", "build", "-o", BIN, "."], cwd=HERE, env=env,
                              stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return False
    return done.returncode == 0


def bench_args(workload, seed, seconds, trace, corrupt=False):
    args = [BIN, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
            "-trace", str(trace), "-work", os.path.join(BUILD, "work")]
    if corrupt:
        args.append("-corrupt")
    return args


def run_env():
    return {k: v for k, v in os.environ.items() if k not in RUNTIME_KNOBS}


def run_once(args):
    """Run the benchmark with its output passed through; return its code."""
    try:
        return subprocess.run(args, cwd=ROOT, env=run_env(), timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def selfcheck(workload, first_seed, seconds, trace, runs):
    """Run `runs` seeds and report each metric's spread across them."""
    values = {}
    units = {}
    for seed in range(first_seed, first_seed + runs):
        try:
            done = subprocess.run(bench_args(workload, seed, seconds, trace), cwd=ROOT,
                                  env=run_env(), stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"seed {seed}: exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}", file=sys.stderr)
            print(done.stdout, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        bounds = {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}
    except (OSError, ValueError, KeyError):
        pass
    print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
          f"{seconds} s, trace {trace}")
    print(f"{'metric':30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'range/med':>9} {'bound':>6}  unit")
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0], 0, xs[0])
        iqr = (q3 - q1) / med if med else float("nan")
        rng = (max(xs) - min(xs)) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if iqr <= bound / 3 else ("wide" if iqr <= bound else "FAIL")
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"{name:30} {med:12.6g} {q1:12.6g} {q3:12.6g} {iqr:8.3f} {rng:9.3f} "
              f"{bound_s:>6}  {units[name]} {flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--selfcheck", type=int, default=0, metavar="N",
                   help="run N consecutive seeds and report each metric's spread")
    p.add_argument("--corrupt", action="store_true",
                   help="alter one recorded output before checking; the run must fail")
    args = p.parse_args()
    if not build():
        return 1
    if args.selfcheck:
        return selfcheck(args.workload, args.seed, args.seconds, args.trace, args.selfcheck)
    return run_once(bench_args(args.workload, args.seed, args.seconds, args.trace, args.corrupt))


if __name__ == "__main__":
    sys.exit(main())
