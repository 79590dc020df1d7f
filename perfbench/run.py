#!/usr/bin/env python3
"""Builds the in-process benchmark from source and runs it.

One run (what the benchmark contract calls):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Steadiness mode: runs workloads repeatedly, one seed per run, and prints
for every metric the median and quartiles across runs and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json:

    python3 perfbench/run.py --steadiness RUNS [--workloads a,b]
        [--seconds S] [--trace 0|1] [--first-seed N]

Run from the repository root. The build honours CARGO_TARGET_DIR and
otherwise writes to perfbench/target.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the release binary; exits non-zero without output on failure."""
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit("perfbench: build failed")
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(HERE, "target"))
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def option(args, name, default):
    if name in args:
        i = args.index(name)
        if i + 1 >= len(args):
            sys.exit(f"perfbench: {name} needs a value")
        return args[i + 1]
    return default


def spread_table(binary, args):
    """Steadiness mode: repeated runs, quartiles across runs per metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = int(option(args, "--steadiness", "10"))
    names = [w["name"] for w in bench["workloads"]]
    workloads = option(args, "--workloads", ",".join(names)).split(",")
    seconds = option(args, "--seconds", str(bench["run_seconds"]))
    trace = option(args, "--trace", "0")
    first_seed = int(option(args, "--first-seed", "1"))
    kind = "per_layer" if trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    summary = {}
    for w in workloads:
        values = {}
        failed = attempted = 0
        for seed in range(first_seed, first_seed + runs):
            cmd = [binary, "--workload", w, "--seed", str(seed),
                   "--seconds", seconds, "--trace", trace]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
            if out.returncode != 0:
                sys.exit(f"perfbench: {w} seed {seed} exited {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{w} seed {seed}: NOT CORRECT", file=sys.stderr)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}, "
              f"{attempted} ops, {failed} failed")
        print(f"  {'metric':30s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within" if spread <= bound else "WIDE")
            print(f"  {name:30s} {q1:12.6g} {med:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound if bound is not None else '':>6} {flag}")
            rows[name] = {"q1": q1, "median": med, "q3": q3, "spread": spread,
                          "values": vals}
        summary[w] = {"attempted": attempted, "failed": failed, "metrics": rows}
    print(json.dumps(summary))


def main():
    binary = build()
    args = sys.argv[1:]
    if "--steadiness" in args:
        spread_table(binary, args)
        return
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    main()
