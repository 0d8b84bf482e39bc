#!/usr/bin/env python3
"""Repository benchmark: builds the engine and the benchmark from source,
runs one workload and prints its metrics.

    python3 perfbench/run.py --workload ysb --seed 1 --seconds 10 --trace 0

With --trace 0 the result carries the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Everything the run
leaves behind goes under .bench_build/ in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "streamline_bench")
WORK = os.path.join(BUILD_ROOT, "work")
REPORTS = os.path.join(BUILD_ROOT, "reports")
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        die("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures and builds perfbench/ (which compiles ../src)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("engine sources (src/) not found next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "-j", jobs]):
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))


def tree_hash():
    """Content hash of the engine and benchmark sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                p = os.path.join(d, name)
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_state():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip(), bool(dirty.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        pass
    return "none", None


def compiler():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    cxx, build_type = "unknown", "unknown"
    if os.path.isfile(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    cxx = line.split("=", 1)[1].strip()
                elif line.startswith("CMAKE_BUILD_TYPE:"):
                    build_type = line.split("=", 1)[1].strip()
    try:
        out = subprocess.run([cxx, "--version"], capture_output=True,
                             text=True, timeout=10).stdout
        cxx = out.splitlines()[0] if out else cxx
    except (OSError, subprocess.SubprocessError):
        pass
    return cxx, build_type


def fingerprint():
    sha, dirty = git_state()
    cxx, build_type = compiler()
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": cxx,
        "build_type": build_type,
        "git_sha": sha,
        "git_dirty": dirty,
        "source_tree": tree_hash(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="small inputs (self-test)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="corrupt one oracle entry (self-test)")
    args = ap.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(WORK, exist_ok=True)
    os.makedirs(REPORTS, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt_oracle:
        cmd.append("--corrupt-oracle")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        die("workload exited with %d" % proc.returncode)
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            die("metric %s was not measured" % m["name"])
        if got["unit"] != m["unit"]:
            die("metric %s reported in %s, BENCHMARK.json says %s"
                % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    host = fingerprint()
    info = raw.get("info", {})
    usage = {k[len("rusage."):]: float(v) for k, v in info.items()
             if k.startswith("rusage.")}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    result = {
        "correct": bool(raw["correct"]) and failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "host": host,
        "rusage": usage, "info": info,
        "failed_frac": failed / attempted if attempted else 1.0,
        "all_metrics": raw["metrics"], "result": result,
    }
    path = os.path.join(REPORTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print("host: " + json.dumps(host, sort_keys=True))
    print("rusage: " + json.dumps(usage, sort_keys=True))
    for key, value in sorted(info.items()):
        if key.endswith("WARNING"):
            print("FLAG %s: %s" % (key, value))
    print("failed_frac: %.6g (%d of %d checked operations)"
          % (report["failed_frac"], failed, attempted))
    for name, m in metrics.items():
        print("%-34s %18.6f %s" % (name, m["value"], m["unit"]))
    print("report: " + os.path.relpath(path, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
