#!/usr/bin/env python3
"""Builds the perfbench binary from this checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the checkout
root; the first call configures and compiles, later calls only relink if a
source changed. Build output goes to stderr; stdout carries the binary's
report, whose last line is one JSON object. The exit code is the binary's.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_bounded(cmd, timeout, stdout):
    """Runs `cmd` in its own process group and waits for it. On timeout the
    whole group (make, compilers) is killed and reaped; returns (code, out),
    code None on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, ""
    return proc.returncode, out


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/CMakeLists.txt next to perfbench/; "
                 "run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        # Build chatter goes to stderr so stdout ends with the JSON result.
        code, _ = run_bounded(step, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if code != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(out_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    binary = build(out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    code, out = run_bounded(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--trace-dir", trace_dir],
        RUN_TIMEOUT_S, stdout=subprocess.PIPE)
    if code is None:
        sys.exit(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if code != 0:
        sys.exit(code)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.exit("perfbench: the binary printed no result line")


if __name__ == "__main__":
    main()
