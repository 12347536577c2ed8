#!/usr/bin/env python3
"""Builds perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload sweep|explore|dashboard|refresh \
        --seed N --seconds S --trace 0|1 [--smoke] [--plant-wrong-answer]

Run it from the checkout root. The build tree is .bench_build/perfbench and
scratch files (sockets, .nt/.rdx datasets, traces) go to .bench_run/; both
stay inside the checkout. The last line of stdout is the result object
printed by the perfbench binary; the exit code is the binary's (non-zero on
any wrong answer, moved dfs count or failed request).
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_ROOT = os.path.join(ROOT, ".bench_run")
CONFIG = os.path.join(BENCH_DIR, "config.json")
WORKLOADS = ["sweep", "explore", "dashboard", "refresh"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 2


def build():
    """Configures once, then rebuilds incrementally. Build output goes to
    stderr so stdout stays the benchmark's own."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no rdfmr source tree next to perfbench/")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", "4"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int,
                        help="default: config.json's default_seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny datasets for the self-test")
    parser.add_argument("--plant-wrong-answer", action="store_true",
                        help="drill: corrupt one checked answer")
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        return fail("build failed: %s" % error)

    # A private scratch directory per run, relative to the checkout root so
    # unix socket paths stay short.
    run_dir = os.path.join(".bench_run", "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(os.path.join(ROOT, run_dir), exist_ok=True)
    command = [binary, "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--config", CONFIG, "--run-dir", run_dir]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    if args.plant_wrong_answer:
        command.append("--plant-wrong-answer")
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        code = fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        # Keep the traced run's trace and layer table; drop the datasets.
        keep = (".trace.json", ".layers.txt")
        for name in os.listdir(os.path.join(ROOT, run_dir)):
            path = os.path.join(ROOT, run_dir, name)
            if not name.endswith(keep):
                if os.path.isdir(path):
                    shutil.rmtree(path)
                else:
                    os.remove(path)
        if not os.listdir(os.path.join(ROOT, run_dir)):
            os.rmdir(os.path.join(ROOT, run_dir))
    return code


if __name__ == "__main__":
    sys.exit(main())
