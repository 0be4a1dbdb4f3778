#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a cargo package of its own, against the repository's
crates) into $CARGO_TARGET_DIR (default `.bench_build`), runs it, and
passes its output through. The last line of standard output is the JSON
result; any wrong result, build failure or timeout exits non-zero without
one. Run outputs (per-unit rows, spans, counters) go to `.bench_out/`.

    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>

runs every workload in turn and exits non-zero if any of them fails.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --determinism

runs the traced pass twice with the same seed and checks that every unit
both runs finished has identical II, B&B nodes, simplex iterations and SAT
conflicts.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["golden-minreg", "synth-minreg", "synth-explain"]
RUN_TIMEOUT_S = 170


def build():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(target, "release", "optimod-perfbench")


def run(binary, args, trace):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S}s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: run failed with status {proc.returncode}")
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        sys.exit("perfbench: result not marked correct")
    return proc.stdout


def counters(args):
    path = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}.counters.tsv")
    with open(path) as f:
        rows = [line.rstrip("\n").split("\t") for line in f][1:]
    return {r[0]: r[1:] for r in rows}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--determinism", action="store_true")
    args = p.parse_args()

    binary = build()
    if args.workload == "all":
        for w in WORKLOADS:
            print(f"=== {w}", flush=True)
            sys.stdout.write(run(binary, argparse.Namespace(**{**vars(args), "workload": w}), args.trace))
            sys.stdout.flush()
        return
    if not args.determinism:
        sys.stdout.write(run(binary, args, args.trace))
        return
    run(binary, args, 1)
    first = counters(args)
    run(binary, args, 1)
    second = counters(args)
    common = [u for u in first if u in second and first[u][-1] == second[u][-1] == "done"]
    diffs = [u for u in common if first[u] != second[u]]
    for u in diffs:
        print(f"{u}: {first[u]} vs {second[u]}")
    print(f"determinism: {len(common)} unit(s) finished in both runs, {len(diffs)} differ")
    sys.exit(1 if diffs or not common else 0)


if __name__ == "__main__":
    main()
