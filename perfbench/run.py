#!/usr/bin/env python3
"""Build the benchmark driver with optimisation and run one workload.

    python3 perfbench/run.py --workload admit_churn --seed 1 --seconds 12 --trace 0

Run from the root of a checkout. The driver and the program's libraries are
compiled from source into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the build is incremental, so only the first run of a
checkout pays for it. The driver's standard output is passed through; its
last line is the JSON result.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("admit_churn", "poll_tenants", "paper_sweep")


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", "4"],
    ]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed (%s)\n" % log_path)
                return None
    return os.path.join(build_dir, "perfbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no program sources under %s\n" % ROOT)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    driver = build(os.path.join(target, "perfbench"))
    if driver is None:
        return 1
    sys.stdout.flush()
    return subprocess.run([driver, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
