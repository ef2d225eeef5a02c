#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (rpcbench).

    python3 rpcbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 rpcbench/run.py --self-test

Run from the root of a checkout. The first call configures and builds the
simulator library and the benchmark from source (Release) into
$CARGO_TARGET_DIR/rpcbench, default .bench_build/rpcbench; later calls
rebuild only what changed. Build output goes to stderr.

The benchmark's last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. This script checks that its metric names and
units are exactly the ones BENCHMARK.json declares (end_to_end with
--trace 0, per_layer with --trace 1) and exits non-zero when they are not,
when the build fails, or when any response was wrong.

Relation to bench/bench_simperf.cpp: bench_simperf keeps its own committed
baseline (BENCH_simperf.json) for the fig7 1 KB scenario and the shard
scaling sweeps; rpcbench is the workload/metric contract later performance
changes are judged against. Neither replaces the other.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "rpcbench")


def build(out_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    # Compiler temporaries stay inside the build tree too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.call(configure, stdout=sys.stderr, env=env) != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.call(["cmake", "--build", out_dir, "--target", "rpcbench",
                        "-j", jobs], stdout=sys.stderr, env=env) != 0:
        return None
    return os.path.join(out_dir, "rpcbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when the result line is valid."""
    try:
        result = json.loads(line)
    except ValueError:
        return "the last output line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "unexpected result keys %s" % sorted(result)
    if result["correct"] is not True:
        return "the benchmark found a wrong result"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = declared_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, " \
               "unit mismatch %s" % (missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if binary is None:
        print("rpcbench: build failed", file=sys.stderr)
        return 1

    if args.self_test:
        command = [binary, "--self-test"]
    else:
        command = [binary, "--workload", args.workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.trace:
            traces = os.path.join(out_dir, "traces")
            os.makedirs(traces, exist_ok=True)
            command += ["--trace-out", os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("rpcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if args.self_test:
        print("\n".join(lines))
        return proc.returncode

    error = check_result(lines[-1], args.trace)
    if error is None:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode == 0:
        lines = lines[:-1]  # never pass an invalid result line on
    print("\n".join(lines))
    print("rpcbench: %s" % error, file=sys.stderr)
    return proc.returncode or 1


if __name__ == "__main__":
    sys.exit(main())
