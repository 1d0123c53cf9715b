#!/usr/bin/env python3
"""Round-level benchmark of the AsyncFilter simulator.

Run from the repository root:

    python3 roundbench/run.py --workload fmnist-lenet-inproc --seed 1 \
        --seconds 30 --trace 0

Builds the `roundbench` program and the simulator libraries from source
into .bench_build/roundbench (incrementally), runs one measurement and
prints its digests and, as the last stdout line, the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics
(and writes the spans of the last traced run under .bench_build/traces).
See roundbench/README.md for the workloads and metrics.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "roundbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def fail(message):
    print("roundbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources next to the benchmark (expected %s)"
             % os.path.join(ROOT, "src"))
    jobs = str(len(os.sched_getaffinity(0)))
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if os.path.isfile(cache):
        # A build tree configured for another source location (a moved
        # checkout) cannot be reused.
        with open(cache) as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in f.read():
                shutil.rmtree(BUILD)
    if not os.path.isfile(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    step = ["cmake", "--build", BUILD, "--target", "roundbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        units = sorted(n for n in set(got) & set(expected)
                       if got[n] != expected[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "wrong unit %s" % (missing, extra, units))
    for name, m in result["metrics"].items():
        value = m["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("metric %s is not a finite number" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every size (self-test only)")
    args = parser.parse_args()

    build()
    command = [os.path.join(BUILD, "roundbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        command.append("--tiny")
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        command += ["--spans-out", os.path.join(
            TRACES, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        fail("roundbench exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("last output line is not a JSON object")
    check_result(result, args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
