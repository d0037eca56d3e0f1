#!/usr/bin/env python3
"""Turns saved `perfbench/run.py` outputs into a perf-ledger entry.

    python3 scripts/bench_ledger.py WORKLOAD PARENT_DIR CHANGE_DIR [--out FILE] [--title TEXT]

Each directory holds the standard output of `python3 perfbench/run.py
--workload WORKLOAD --seed S ...`, one file per run (`*.out`): the full
report is the second-to-last line, the result line the last. The two sides
pair by the report's seed; make each pair on one machine, alternating
which side runs first.

Writes `BENCH_<WORKLOAD>.json` (or FILE) holding

  - per run: the result line, plus the report's `provenance` and
    `end_to_end`;
  - per end-to-end metric (names, units, directions and bounds from
    `BENCHMARK.json`): each side's median and quartiles, the change's
    median over the parent's, and how many pairs the change won (ties
    count for neither side);

and prints the markdown table EXPERIMENTS.md uses. Quartiles are the
inclusive (linear-interpolation) ones. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_run(path):
    """The report and result objects of one saved run."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
    if len(lines) < 2:
        sys.exit(f"bench_ledger: {path}: no report and result lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def load_side(directory, workload):
    """Runs of one side keyed by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        report, result = load_run(path)
        report = report.get("report", report)
        if report.get("workload") != workload:
            sys.exit(f"bench_ledger: {path} is a {report.get('workload')} run")
        runs[report["seed"]] = {
            "file": os.path.basename(path),
            "seed": report["seed"],
            "traced": report.get("traced"),
            "provenance": report.get("provenance"),
            "end_to_end": report.get("end_to_end"),
            "result": result,
        }
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(spec, pairs):
    """Per-metric medians, quartiles and pair wins of the change."""
    out = {}
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        parent, change = [], []
        wins = ties = 0
        for p, c in pairs:
            pv = p["result"]["metrics"].get(name, {}).get("value")
            cv = c["result"]["metrics"].get(name, {}).get("value")
            if pv is None or cv is None:
                continue
            parent.append(pv)
            change.append(cv)
            if pv == cv:
                ties += 1
            elif (cv > pv) == higher:
                wins += 1
        if not parent:
            continue
        pq, cq = quartiles(parent), quartiles(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "ratio": cq[1] / pq[1] if pq[1] else None,
            "change_wins": wins,
            "ties": ties,
            "pairs": len(parent),
        }
    return out


def fmt(x):
    if x is None:
        return "—"
    if float(x).is_integer() or abs(x) >= 100:
        return f"{x:,.0f}"
    if abs(x) >= 1:
        return f"{x:.2f}"
    return f"{x:.3g}"


def table(metrics):
    rows = [
        "| metric | parent median [q1–q3] | change median [q1–q3] | change / parent | change wins | bound |",
        "|---|---|---|---|---|---|",
    ]
    for name, m in metrics.items():
        p, c = m["parent"], m["change"]
        ratio = "—" if m["ratio"] is None else f"{m['ratio']:.2f}×"
        rows.append(
            f"| `{name}` ({m['unit']}, {m['better']} is better) "
            f"| {fmt(p['median'])} [{fmt(p['q1'])}–{fmt(p['q3'])}] "
            f"| {fmt(c['median'])} [{fmt(c['q1'])}–{fmt(c['q3'])}] "
            f"| {ratio} | {m['change_wins']}/{m['pairs']} | {m['bound']:.0%} |"
        )
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload")
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--out", help="default: BENCH_<workload>.json at the repo root")
    ap.add_argument("--title", default="", help="what the change is, for the entry")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["end_to_end"]
    parent = load_side(args.parent_dir, args.workload)
    change = load_side(args.change_dir, args.workload)
    seeds = sorted(set(parent) & set(change))
    if not seeds:
        sys.exit("bench_ledger: no seed has a run on both sides")
    pairs = [(parent[s], change[s]) for s in seeds]
    metrics = summarize(spec, pairs)
    entry = {
        "workload": args.workload,
        "title": args.title,
        "seeds": seeds,
        "metrics": metrics,
        "runs": {"parent": [p for p, _ in pairs], "change": [c for _, c in pairs]},
    }
    out = args.out or os.path.join(ROOT, f"BENCH_{args.workload}.json")
    with open(out, "w") as fh:
        json.dump(entry, fh, indent=1)
        fh.write("\n")
    print(f"**{args.workload}**, {len(pairs)} alternating pairs (seeds {', '.join(map(str, seeds))})\n")
    print(table(metrics))


if __name__ == "__main__":
    main()
