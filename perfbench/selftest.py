#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload at small size (--quick) and checks that it reports
failed_frac = 0 and every metric BENCHMARK.json names, with its unit; runs
the traced suite once the same way; and runs every workload with one oracle
entry corrupted, which must report failed_frac > 0. Exits non-zero on the
first broken expectation.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(cond, what):
    if not cond:
        print("FAIL: " + what)
        sys.exit(1)
    print("ok:   " + what)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "2", "--trace", str(trace),
           "--quick", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout[-4000:] + proc.stderr[-4000:])
        check(False, "%s trace=%d %s exits 0 with a result"
              % (workload, trace, " ".join(extra)))
    return json.loads(lines[-1]), proc.stdout


def check_metrics(result, stdout, wanted, label):
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          label + ": result has exactly the contract keys")
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          label + ": every named metric is reported")
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            check(False, "%s: %s in %s" % (label, m["name"], m["unit"]))
        if not re.search(r"^%s\s+\S+ %s$" % (re.escape(m["name"]),
                                              re.escape(m["unit"])),
                         stdout, re.M):
            check(False, "%s: %s printed with its unit" % (label, m["name"]))
    check(True, label + ": every metric printed with its unit")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract keys")
    names = [w["name"] for w in spec["workloads"]]
    metric_names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names + metric_names)
          and len(set(names)) == len(names)
          and len(set(metric_names)) == len(metric_names),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"])
              for m in spec["end_to_end"] + spec["per_layer"]),
          "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "every end-to-end bound is in (0, 0.25]")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s is an end-to-end metric")

    for w in names:
        result, out = run(w, 0)
        check_metrics(result, out, spec["end_to_end"], w)
        check(result["correct"] and result["failed"] == 0
              and result["attempted"] > 0,
              "%s: failed_frac = 0 over %d checked operations"
              % (w, result["attempted"]))
        check(all(m["value"] > 0 for m in result["metrics"].values()),
              w + ": every end-to-end metric is above 0")

    result, out = run(names[0], 1)
    check_metrics(result, out, spec["per_layer"], names[0] + " traced")
    check(result["correct"] and result["failed"] == 0,
          "traced suite: failed_frac = 0")

    for w in names:
        result, _ = run(w, 0, "--corrupt-oracle")
        check(not result["correct"] and result["failed"] > 0,
              "%s: a corrupted oracle entry gives failed_frac = %d/%d > 0"
              % (w, result["failed"], result["attempted"]))
    print("selftest passed")


if __name__ == "__main__":
    main()
