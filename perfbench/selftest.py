#!/usr/bin/env python3
"""Self-test of the benchmark: names printed == names declared, both ways.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once in quick mode (one campaign per
pass), untraced and traced, and checks that:
  * the harness knows exactly the workloads BENCHMARK.json declares;
  * each run exits 0 and its last line is the result object with exactly the
    keys correct, attempted, failed, metrics, with correct true;
  * the metrics of an untraced run are exactly the declared end_to_end ones
    and those of a traced run exactly the declared per_layer ones, with the
    declared units and finite numeric values.
Exits 1 on the first mismatch, printing what differed.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check(cond, msg):
    if not cond:
        print("FAIL: " + msg)
        sys.exit(1)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    check(proc.returncode == 0, "%s trace %d exited %d:\n%s"
          % (workload, trace, proc.returncode, proc.stdout))
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    declared = [w["name"] for w in bench["workloads"]]
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "chaser_perfbench")
    for workload in declared:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (workload, sorted(result)))
            check(result["correct"] is True and result["failed"] == 0,
                  "%s trace %d: not correct" % (workload, trace))
            check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
                  "%s: attempted %r" % (workload, result["attempted"]))
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = result["metrics"]
            check(set(got) == set(want), "%s trace %d: printed-only %s, declared-only %s"
                  % (workload, trace, sorted(set(got) - set(want)),
                     sorted(set(want) - set(got))))
            for name, m in got.items():
                check(m["unit"] == want[name], "%s: %s unit %s, declared %s"
                      % (workload, name, m["unit"], want[name]))
                check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                      "%s: %s value %r" % (workload, name, m["value"]))
            print("ok: %s trace %d (%d metrics)" % (workload, trace, len(got)))
    # The run above built the harness; it must list exactly the declared workloads.
    listed = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True,
                            check=True).stdout.split()
    check(sorted(listed) == sorted(declared),
          "harness workloads %s, declared %s" % (listed, declared))
    print("ok: workloads %s" % ", ".join(declared))


if __name__ == "__main__":
    main()
