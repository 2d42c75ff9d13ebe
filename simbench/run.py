#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

usage: python3 simbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `simbench` package from source
(into $CARGO_TARGET_DIR, default `.bench_build`), runs it as one process pinned to one
worker thread (RAYON_NUM_THREADS=1) with a fixed glibc mmap threshold, and adds the
process's peak resident memory to the end-to-end metrics. Everything the benchmark prints passes through; the last line of
standard output is the JSON result. Any build, run or check failure exits non-zero
without printing a result.
"""

import json
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself stops after --seconds plus one repetition; this only guards
# against a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    return 1


def main(argv):
    if "--trace" not in argv[:-1]:
        return fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    trace = argv[argv.index("--trace") + 1]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["RAYON_NUM_THREADS"] = "1"
    build = subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("building the benchmark failed")

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "simbench")
    # A fixed mmap threshold stops glibc from moving it after each large free, which
    # otherwise parks freed report buffers on the heap and makes peak RSS depend on the
    # allocation order a seed happens to produce (30 or 35 MiB for the same workload).
    # Large blocks are then always mapped and unmapped, so peak RSS tracks live memory.
    env["GLIBC_TUNABLES"] = "glibc.malloc.mmap_threshold=131072"
    child = subprocess.Popen([binary] + argv, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        # wait4 reaps this one child and returns its own resource usage.
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        child.stdout.close()
    if child.returncode != 0:
        return fail(f"the benchmark exited with {child.returncode}")

    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return fail("the benchmark printed no JSON result")
    for line in lines[:-1]:
        print(line)
    if trace == "0":
        # ru_maxrss is in KiB on Linux.
        peak_mib = usage.ru_maxrss / 1024
        print(f"{'peak_rss_mib':<28} {peak_mib:>18} {'MiB':<10} n=1")
        metrics = result["metrics"]
        ordered = {}
        for name, value in metrics.items():
            ordered[name] = value
            if name == "sim_req_per_s":
                ordered["peak_rss_mib"] = {"value": peak_mib, "unit": "MiB"}
        result["metrics"] = ordered
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
