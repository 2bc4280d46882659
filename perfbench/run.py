#!/usr/bin/env python3
"""Builds the tsv library and the benchmark driver from this checkout, then
runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build); the last line of stdout is the driver's JSON result.
With --trace 1 the recorded spans are written to
<build>/spans/<workload>-seed<N>.jsonl.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("solve-2d-mem", "sharded-3d-periodic", "serve-mixed")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sources = (os.path.join(root, "CMakeLists.txt"), os.path.join(root, "src", "tsv"))
    if not all(os.path.exists(p) for p in sources):
        print("run.py: the tsv sources are not in this checkout", file=sys.stderr)
        return 2

    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(os.cpu_count() or 1)
    for cmd in (
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ):
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    cmd = [
        os.path.join(build, "tsvbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", os.path.join(spans, name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
