#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload hot --seed 1 --seconds 30 --trace 0

Builds perfbench/perfbench.exe with dune inside the checkout, runs it
with the given arguments, and passes its standard output through. The
last line is the result object; with --trace 0 its metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
Exits nonzero, without a result line of its own, when the build fails,
the program fails or times out, or the result does not name exactly the
declared metrics.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a source checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    # the dune cache lives outside the checkout; keep every write inside
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build did not finish: {e}")
    if build.returncode != 0:
        die(f"build failed with exit code {build.returncode}")

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(len(os.sched_getaffinity(0)))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"no result within {RUN_TIMEOUT_S} s")
    if run.returncode not in (0, 1):
        sys.stdout.write(run.stdout)
        die(f"benchmark exited with code {run.returncode}")
    lines = run.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
        got = set(result["metrics"])
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stdout.write(run.stdout)
        die("last line is not a result object")
    if got != declared:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die(f"metrics differ from BENCHMARK.json: missing {sorted(declared - got)}, "
            f"undeclared {sorted(got - declared)}")
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    # 1: the program found a failed run and said so in its result line
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
