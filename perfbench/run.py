#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. The first call builds the STAUB libraries
and the driver into $CARGO_TARGET_DIR (default .bench_build); later calls
only check the build is current. A failed build is reported on stderr, so
the last line on stdout is always the driver's JSON result.

`--workload all` runs every workload untraced and traced, prints each
run's metrics and the tracing overhead per workload, and exits non-zero
when any run fails its correctness gate.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
WORKLOADS = ["vc-stream", "int-relational", "table2-mix"]


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the driver; returns its path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(SOURCE), "-B", str(out),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(out), "--target", "perfbench",
              "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(step))
            sys.exit(2)
    return out / "perfbench"


def run(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    done = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout.splitlines()


def run_all(binary, seed, seconds):
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, lines = run(binary, workload, seed, seconds, trace)
            print("\n".join(lines[:-1]))
            status = status or code
            try:
                results[trace] = json.loads(lines[-1])["metrics"]
            except (IndexError, ValueError, KeyError):
                status = status or 1
        if 0 in results and 1 in results:
            plain = results[0]["query_p50_ms"]["value"]
            traced = results[1]["trace.query_p50_ms"]["value"]
            print("%s: tracing overhead on the median query %+.1f%% "
                  "(%.3f ms untraced, %.3f ms traced)\n"
                  % (workload, 100.0 * (traced / plain - 1.0), plain, traced))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    if args.workload == "all":
        return run_all(binary, args.seed, args.seconds)
    code, lines = run(binary, args.workload, args.seed, args.seconds,
                      args.trace)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
