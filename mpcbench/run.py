#!/usr/bin/env python3
"""Build and run the end-to-end MPC benchmark.

    python3 mpcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It configures and builds the benchmark
(CMake, Release) into $CARGO_TARGET_DIR/mpcbench, or .bench_build/mpcbench
when that variable is unset; later runs rebuild only what changed. Build
output goes to stderr. The benchmark's last stdout line is its JSON result,
and the exit code is the benchmark's.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LIBRARY = os.path.join(HERE, "..", "src", "core", "runner.hpp")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()

    if not os.path.isfile(LIBRARY):
        print("mpcbench: the library sources (src/) are missing next to the benchmark",
              file=sys.stderr)
        return 1
    build = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "mpcbench"))
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("mpcbench: build failed", file=sys.stderr)
            return 1

    return subprocess.run([
        os.path.join(build, "mpcbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
