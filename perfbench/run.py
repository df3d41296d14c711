#!/usr/bin/env python3
"""End-to-end benchmark of the CDCL trainer and its live server.

Builds the program from this tree (its default CMake options, Release) plus
the benchmark driver under .bench_build/, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the run also writes a Chrome
trace-event file under .bench_build/trace/. Build output goes to standard
error. See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("table_digits", "serve_training")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "cdcl_perfbench")


def build():
    """Configures once and builds incrementally; False when the build fails."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "cdcl_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def commit_id():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check that every output check rejects a wrong output")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no program source next to perfbench/", file=sys.stderr)
        return 2
    if not build():
        return 2

    work_dir = os.path.join(BUILD_ROOT, "work", str(os.getpid()))
    command = [BINARY, "--work-dir", work_dir]
    if args.selftest:
        command.append("--selftest")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--commit", commit_id()]
        if args.trace:
            trace_dir = os.path.join(BUILD_ROOT, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            command += ["--trace-out", os.path.join(
                trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        # The driver's output passes straight through: its last line is the
        # result object. It cannot outlive this call.
        code = subprocess.run(command).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
