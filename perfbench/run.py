#!/usr/bin/env python3
"""End-to-end benchmark of qulrb: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload samoa-solve --seed 1 --seconds 25 --trace 0

Workloads: samoa-solve, fleet-retarget, fleet-cold (see perfbench/README.md).
The first run in a checkout configures and builds the benchmark program
(perfbench/cpp), the qulrb libraries and the qulrb_serve / qulrb_router
binaries into .bench_build/ (Release); later runs rebuild incrementally. The
benchmark program then runs the workload; the last line of stdout is the
result object {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.

Exit status: the benchmark program's (0 = every output check passed, 1 = a
check failed, 2 = set-up error); 2 also when the sources are missing or the
build fails, 3 when the run overran its time limit. No result line is
printed in those last cases.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-build")
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out")
TARGETS = ["perfbench", "qulrb_serve", "qulrb_router"]
WORKLOADS = ["samoa-solve", "fleet-retarget", "fleet-cold"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """sha256 over the sources the build compiles (the checkout need not be a
    git repository, so this stands in for the revision)."""
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no qulrb sources at " + ROOT + " (src/CMakeLists.txt missing)")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(os.cpu_count() or 1),
                  "--target"] + TARGETS)
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path)
            if done.returncode != 0:
                fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--bin-dir", os.path.join(BUILD_DIR, "qulrb", "tools"),
               "--out-dir", OUT_DIR, "--source-digest", source_digest()]
    os.makedirs(OUT_DIR, exist_ok=True)
    bench = subprocess.Popen(command)
    try:
        return bench.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The fleet processes die with it (they are started with a
        # parent-death signal).
        bench.kill()
        bench.wait()
        fail("the run overran %d s" % RUN_TIMEOUT_S, 3)
    finally:
        if bench.poll() is None:
            bench.kill()
            bench.wait()


if __name__ == "__main__":
    sys.exit(main())
