#!/usr/bin/env python3
"""End-to-end benchmark of the InstantDB engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine and the benchmark program from source into .bench_build/
(or $CARGO_TARGET_DIR when set), runs one workload, and passes the
program's output through. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("expiry_stream", "purpose_reads", "mixed_service")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """Git commit of the checkout when it is a repository, else a digest of
    the engine sources."""
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=10)
            if sha.returncode == 0 and sha.stdout.strip():
                return "git:" + sha.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(root, build_dir):
    """Configures (once) and builds the program; build output goes to stderr."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (step[0], e))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no program at " + binary)
    return binary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    root = os.getcwd()
    for needed in ("src/instantdb/instantdb.h", "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("not a source checkout (missing %s); run from its root" % needed)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", os.path.join(build_dir, "work"),
               "--source", source_id(root)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark program exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("benchmark program exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(done.stdout)
        fail("benchmark program printed no result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
