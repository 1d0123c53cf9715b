#!/usr/bin/env python3
"""Self-test of the round benchmark: a tiny-size pass of every workload.

    python3 roundbench/selftest.py

For each workload of BENCHMARK.json, runs run.py --tiny untraced and
traced. Each pass runs the benchmark's correctness gate (round counts,
verdict sums, repeat digests, traced == untraced, timed-layer model ==
library model, tcp == inproc); the test checks that the gate passed,
that a digest line was printed, and that every metric BENCHMARK.json
names for that mode is printed with its unit. Exits non-zero on failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (workload, trace)
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "0",
                 "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=600)
            lines = proc.stdout.splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append("exit code %d: %s"
                                % (proc.returncode, proc.stderr[-2000:]))
            else:
                result = json.loads(lines[-1])
                if result["correct"] is not True:
                    problems.append("correctness gate failed")
                if result["attempted"] < 1 or result["failed"] != 0:
                    problems.append("attempted %s failed %s"
                                    % (result["attempted"], result["failed"]))
                if not any(line.startswith("digest ") for line in lines):
                    problems.append("no digest printed")
                want = {m["name"]: m["unit"] for m in bench[section]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != want:
                    problems.append("metrics/units differ from BENCHMARK.json")
            print("%-40s %s" % (label, "ok" if not problems else "FAIL"))
            failures += ["%s: %s" % (label, p) for p in problems]
    for failure in failures:
        print(failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
