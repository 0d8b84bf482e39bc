#!/usr/bin/env python3
"""Compares two sets of perfbench reports: a parent run set and a change.

    python3 tools/bench_diff.py PARENT_DIR CHANGE_DIR
    python3 tools/bench_diff.py PARENT_DIR CHANGE_DIR \
        --trajectory bench/trajectory/16.json --label "one slice grid"

Each directory holds perfbench report JSONs (the files perfbench/run.py
writes to .bench_build/reports/<workload>-seed<n>-trace<t>.json), one file
per run, in any layout below it. Runs group by workload, seed and trace
flag, and pair up by their path relative to
the directory (parent/03/x.json with change/03/x.json); unmatched runs still
count toward medians.

For every group and every end-to-end metric BENCHMARK.json names, the
table shows the median and quartiles of each side, the change/parent
median ratio and how many pairs the change won. The verdict reads the
metric's bound from BENCHMARK.json (never written):
  unresolved  either side's interquartile range exceeds the bound (as a
              fraction of its median), unless every change run beats
              every parent run;
  regressed   the change's median is worse than the parent's by more
              than the bound;
  improved    the change won at least nine tenths of the pairs and its
              median is better by more than the parent's interquartile
              range;
  held        otherwise (within the bound, no claimable gain).
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reports(top):
    """{relative path: report} for every report JSON under `top`."""
    out = {}
    for d, dirs, files in os.walk(top):
        dirs.sort()
        for name in sorted(files):
            if not name.endswith(".json"):
                continue
            path = os.path.join(d, name)
            with open(path) as f:
                try:
                    report = json.load(f)
                except json.JSONDecodeError:
                    continue
            if "workload" in report and "all_metrics" in report:
                out[os.path.relpath(path, top)] = report
    return out


def quartiles(values):
    """(q1, median, q3) with linear interpolation; one value repeats."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], statistics.median(v), q[2]


def verdict(parent, change, better, bound, wins, pairs):
    """The row verdict; `parent`/`change` are the runs' values."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    sign = 1 if better == "higher" else -1
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if better == "higher":
        all_better = min(change) > max(parent)
    else:
        all_better = max(change) < min(parent)
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (cm - pm) < -bound * abs(pm):
        return "regressed"
    if pairs and wins * 10 >= pairs * 9 and sign * (cm - pm) > p3 - p1:
        return "improved"
    return "held"


def compare(parent, change, spec):
    """Rows of the comparison, one per (workload, seed, trace, metric)."""
    groups = {}
    for side, reports in (("parent", parent), ("change", change)):
        for rel, r in reports.items():
            key = (r["workload"], int(r.get("seed", 0)),
                   int(r.get("trace", 0)))
            groups.setdefault(key, {"parent": {}, "change": {}})
            groups[key][side][rel] = r
    rows = []
    for (workload, seed, trace), sides in sorted(groups.items()):
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            vals = {}
            for side in ("parent", "change"):
                vals[side] = {rel: r["all_metrics"][name]["value"]
                              for rel, r in sides[side].items()
                              if name in r["all_metrics"]}
            if not vals["parent"] or not vals["change"]:
                continue
            p1, pm, p3 = quartiles(list(vals["parent"].values()))
            c1, cm, c3 = quartiles(list(vals["change"].values()))
            sign = 1 if better == "higher" else -1
            pairs = sorted(set(vals["parent"]) & set(vals["change"]))
            wins = sum(1 for rel in pairs
                       if sign * (vals["change"][rel] - vals["parent"][rel])
                       > 0)
            rows.append({
                "workload": workload, "seed": seed, "trace": trace,
                "metric": name, "bound": bound,
                "parent": {"n": len(vals["parent"]), "median": pm,
                           "q1": p1, "q3": p3},
                "change": {"n": len(vals["change"]), "median": cm,
                           "q1": c1, "q3": c3},
                "ratio": cm / pm if pm else None,
                "pairs": len(pairs), "wins": wins,
                "verdict": verdict(list(vals["parent"].values()),
                                   list(vals["change"].values()), better,
                                   bound, wins, len(pairs)),
            })
    return rows


def fingerprint(reports):
    """The host fingerprint shared by the reports (first one's host)."""
    for r in reports.values():
        host = dict(r.get("host", {}))
        for k in ("git_sha", "git_dirty", "source_tree"):
            host.pop(k, None)
        return host
    return {}


def fmt(x):
    if x is None:
        return "-"
    if abs(x) >= 1000:
        return "%.0f" % x
    if abs(x) >= 10:
        return "%.1f" % x
    return "%.3g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="directory of parent-run reports")
    ap.add_argument("change", help="directory of change-run reports")
    ap.add_argument("--trajectory",
                    help="write a trajectory file (medians, IQRs, host)")
    ap.add_argument("--label", default="", help="trajectory description")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent = load_reports(args.parent)
    change = load_reports(args.change)
    if not parent or not change:
        sys.exit("bench_diff: no perfbench reports under %s" %
                 (args.parent if not parent else args.change))
    rows = compare(parent, change, spec)
    print("%-22s %-16s %12s %22s %12s %22s %7s %6s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]",
        "ratio", "wins", "verdict"))
    for r in rows:
        p, c = r["parent"], r["change"]
        print("%-22s %-16s %12s %22s %12s %22s %7s %6s  %s" % (
            "%s/s%d%s" % (r["workload"], r["seed"],
                          "/t1" if r["trace"] else ""), r["metric"],
            fmt(p["median"]), "[%s, %s]" % (fmt(p["q1"]), fmt(p["q3"])),
            fmt(c["median"]), "[%s, %s]" % (fmt(c["q1"]), fmt(c["q3"])),
            fmt(r["ratio"]), "%d/%d" % (r["wins"], r["pairs"]),
            r["verdict"]))
    if args.trajectory:
        traj = {"label": args.label, "host": fingerprint(change),
                "metrics": rows}
        with open(args.trajectory, "w") as f:
            json.dump(traj, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
