#!/usr/bin/env python3
"""Runs the repository benchmark on two checkouts in concurrent, CPU-pinned pairs.

usage: python3 tools/simbench_pairs.py <parent-dir> <change-dir>
           --workload W --seed S --seconds T --pairs N

Each directory is a checkout of the repository (a frozen copy: `simbench/run.py`
rebuilds after any source edit). The script builds each side's benchmark once, into
`<dir>/.bench_build`, the directory `run.py` itself defaults to. Each round then runs
both sides at the same time, each through its own `simbench/run.py --trace 0`, one
pinned with `taskset -c 0` and the other with `taskset -c 1`; the sides swap CPUs
every round, so neither keeps the quieter one. On a small, shared machine wall time
drifts by tens of percent between runs, so a change is compared with its parent only
within a round, under the same load.

It prints, per pair, each side's `sim_req_per_s` and their ratio; then, for
`sim_req_per_s`, `setup_s` and `peak_rss_mib`, each side's median and quartiles and
the number of pairs the change won (ties count for neither side); and whether the
seven simulated metrics were bit-identical in every pair. It exits non-zero if a run
fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The simulated metrics: a pure function of the program and the seed, so a change that
# claims the same bits must reproduce them exactly.
SIMULATED = [
    "ttft_p50_s",
    "ttft_p99_s",
    "itl_p50_s",
    "itl_p99_s",
    "decode_tok_per_s",
    "slo_attainment",
    "completed_ratio",
]
# The wall-clock metrics summarised, with the direction that counts as a win.
TIMED = [("sim_req_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mib", "lower")]


def build(root):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    manifest = os.path.join(root, "simbench", "Cargo.toml")
    command = ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest]
    if subprocess.run(command, env=env).returncode != 0:
        sys.exit(f"simbench_pairs.py: building {root} failed")


def start(root, cpu, args):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(root, ".bench_build"))
    command = ["taskset", "-c", str(cpu), sys.executable, "simbench/run.py"]
    command += ["--workload", args.workload, "--seed", str(args.seed)]
    command += ["--seconds", str(args.seconds), "--trace", "0"]
    return subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE, text=True)


def finish(process, root):
    out, _ = process.communicate()
    if process.returncode != 0:
        sys.exit(f"simbench_pairs.py: the run in {root} exited with {process.returncode}")
    metrics = json.loads(out.rstrip("\n").split("\n")[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()
    sides = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    for root in sides:
        build(root)

    runs = {"parent": [], "change": []}
    print(f"{'pair':>4}  {'parent cpu':>10}  {'parent req/s':>12}  {'change req/s':>12}  ratio")
    for pair in range(args.pairs):
        # The parent takes CPU 0 in even rounds and CPU 1 in odd ones.
        cpus = (pair % 2, 1 - pair % 2)
        processes = [start(root, cpu, args) for root, cpu in zip(sides, cpus)]
        parent, change = [finish(p, root) for p, root in zip(processes, sides)]
        runs["parent"].append(parent)
        runs["change"].append(change)
        ratio = change["sim_req_per_s"] / parent["sim_req_per_s"]
        print(
            f"{pair + 1:>4}  {cpus[0]:>10}  {parent['sim_req_per_s']:>12.0f}  "
            f"{change['sim_req_per_s']:>12.0f}  {ratio:.3f}",
            flush=True,
        )

    print(f"\n{args.workload}, seed {args.seed}, {args.seconds} s per run, {args.pairs} pairs")
    for name, better in TIMED:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ratios = [c / p for p, c in zip(parent, change)]
        (p1, p3), (c1, c3) = quartiles(parent), quartiles(change)
        print(
            f"{name:<14} parent median {statistics.median(parent):.6g} (quartiles {p1:.6g}-{p3:.6g}), "
            f"change median {statistics.median(change):.6g} (quartiles {c1:.6g}-{c3:.6g}), "
            f"ratio median {statistics.median(ratios):.3f} "
            f"({min(ratios):.3f}-{max(ratios):.3f}), change won {wins} of {args.pairs} "
            f"({better} is better)"
        )
    same = all(
        parent[name] == change[name]
        for parent, change in zip(runs["parent"], runs["change"])
        for name in SIMULATED
    )
    print(f"simulated metrics bit-identical in every pair: {'yes' if same else 'NO'}")


if __name__ == "__main__":
    main()
