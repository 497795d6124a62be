#!/usr/bin/env python3
"""Builds and runs the GeoStreams loopback benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload live_fanout --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles the
library from src/) in Release mode under $CARGO_TARGET_DIR, default
.bench_build. Build output goes to stderr, so the last stdout line is
the benchmark's JSON result. --self-test runs every workload for a few
scans in both modes and checks that every metric BENCHMARK.json names
is printed, that the load generator stays within nproc threads and
4 connections, and that a corrupted frame fails the run.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: run from a full checkout of the repository")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "loopback_bench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return os.path.join(ROOT, target_dir), os.path.join(build_dir, "loopback_bench")


def run(binary, work_root, args, capture=False):
    workdir = os.path.join(work_root, "run-%d" % os.getpid())
    cmd = [binary, "--workdir", workdir] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        # The benchmark removes its journal and store files itself, but
        # not when it dies early.
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout or ""


def self_test(binary, work_root):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {
        "0": {m["name"] for m in spec["end_to_end"]},
        "1": {m["name"] for m in spec["per_layer"]},
    }
    max_threads = min(os.cpu_count() or 1, 4)
    problems = []
    # durable_ingest is runnable but not listed in BENCHMARK.json (see
    # METRICS.md); it is checked here all the same.
    workloads = [w["name"] for w in spec["workloads"]] + ["durable_ingest"]
    for workload in workloads:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "7", "--seconds", "2",
                    "--trace", trace]
            code, out = run(binary, work_root, args, capture=True)
            lines = out.strip().splitlines()
            label = "%s --trace %s" % (workload, trace)
            if code != 0 or not lines:
                problems.append("%s exited %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            printed = set(result["metrics"])
            if printed != wanted[trace]:
                problems.append("%s: missing %s, unexpected %s" % (
                    label, sorted(wanted[trace] - printed),
                    sorted(printed - wanted[trace])))
            if not result["correct"] or result["failed"]:
                problems.append("%s: %d of %d failed" % (
                    label, result["failed"], result["attempted"]))
            for line in lines:
                m = re.match(r"loadgen threads=(\d+) connections=(\d+)", line)
                if m and (int(m.group(1)) > max_threads or int(m.group(2)) > 4):
                    problems.append("%s: %s exceeds %d threads / 4 connections"
                                    % (label, line, max_threads))
            print("self-test %s: %d metrics, %d attempted, %d failed" % (
                label, len(printed), result["attempted"], result["failed"]))
    code, out = run(binary, work_root,
                    ["--workload", "live_fanout", "--seed", "7", "--seconds", "1",
                     "--trace", "0", "--corrupt-frame"], capture=True)
    lines = out.strip().splitlines()
    if code == 0 or not lines or json.loads(lines[-1])["correct"]:
        problems.append("a corrupted frame did not fail the run")
    else:
        print("self-test corrupted frame: run failed as it should (exit %d)" % code)
    for problem in problems:
        print("SELF-TEST FAILURE: " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--corrupt-frame", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and (opts.workload is None or opts.seed is None
                               or opts.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    work_root, binary = build()
    if opts.self_test:
        return self_test(binary, work_root)
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", opts.trace]
    if opts.corrupt_frame:
        args.append("--corrupt-frame")
    code, _ = run(binary, work_root, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
