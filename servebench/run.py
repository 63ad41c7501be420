#!/usr/bin/env python3
"""Build and run the served-job benchmark.

Run from the repository root:

    python3 servebench/run.py --workload paper-matrix --seed 1 --seconds 10 --trace 0

Builds the simulator libraries and the benchmark from source with CMake
into .bench_build/servebench (incremental after the first run), then runs
one measurement.  Build output goes to standard error; the last line of
standard output is the result JSON.  Exits non-zero without a result when
the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_build", "servebench-work")
WORKLOADS = ("paper-matrix", "warm-replay", "fuzz-stream")
RUN_TIMEOUT_S = 175

child = None


def reap(proc, stop):
    """Wait for proc (terminating it first if stop is set); remove the
    run directory a killed benchmark could not remove itself."""
    if stop and proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    shutil.rmtree(os.path.join(WORK, "run-%d" % proc.pid), ignore_errors=True)


def stop_child(signum, _frame):
    """Forward termination to the running child and wait for it."""
    if child is not None:
        reap(child, stop=True)
    sys.exit(128 + signum)


def run_logged(cmd):
    """Run a build step with its output on standard error."""
    global child
    child = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    code = child.wait()
    child = None
    return code == 0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "-S", HERE, "-B", BUILD,
                       "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) and \
        run_logged(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "servebench"])


def main():
    global child
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, stop_child)
    signal.signal(signal.SIGINT, stop_child)

    if not build():
        print("servebench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(BUILD, "servebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    child = subprocess.Popen(cmd, cwd=ROOT)
    try:
        child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        reap(child, stop=True)
        print("servebench: run timed out", file=sys.stderr)
        return 1
    reap(child, stop=False)
    code, child = child.returncode, None
    return code


if __name__ == "__main__":
    sys.exit(main())
