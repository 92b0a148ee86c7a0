#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records run.py appends to its --results file (one
JSON object a line). For every workload the script prints the
end-to-end medians and quartiles of both sets side by side, the change
of the median against the metric's bound from BENCHMARK.json, and the
per-layer medians of the traced runs with their change, so that a
saving can be traced to the layer it came from. Standard library only.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    """{(workload, trace): {metric: [values]}} of a results file."""
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            key = (rec["workload"], rec["trace"])
            per_metric = runs.setdefault(key, {})
            for name, m in rec["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles gives them."""
    if not values:
        return None
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def change(base, new):
    return (new - base) / abs(base) if base else float("nan")


def fmt(v):
    return "%.4g" % v


def verdict(spec, base_vals, new_vals):
    """How the new median stands against the base's bound. A gain is
    not claimed here: that needs alternating pairs of runs."""
    base, new = summary(base_vals), summary(new_vals)
    worse = change(base[0], new[0])
    if spec["better"] == "higher":
        worse = -worse
    spread = (base[2] - base[1]) / abs(base[0]) if base[0] else 0.0
    if spread > spec["bound"]:
        return "unresolved (base spread %.1f%% > bound)" % (100 * spread)
    if worse > spec["bound"]:
        return "WORSE beyond bound"
    return "within bound"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = [w["name"] for w in bench["workloads"]]
    for w in workloads:
        e2e_a, e2e_b = base.get((w, 0), {}), new.get((w, 0), {})
        lay_a, lay_b = base.get((w, 1), {}), new.get((w, 1), {})
        if not (e2e_a or e2e_b or lay_a or lay_b):
            continue
        print("== %s  (untraced runs: base %d, new %d; traced: base %d, new %d)"
              % (w, len(next(iter(e2e_a.values()), [])),
                 len(next(iter(e2e_b.values()), [])),
                 len(next(iter(lay_a.values()), [])),
                 len(next(iter(lay_b.values()), []))))
        print("  %-14s %-6s %-30s %-30s %8s  %s"
              % ("metric", "unit", "base median [q1, q3]",
                 "new median [q1, q3]", "change", "verdict"))
        for spec in bench["end_to_end"]:
            a, b = e2e_a.get(spec["name"]), e2e_b.get(spec["name"])
            cols = []
            for vals in (a, b):
                s = summary(vals or [])
                cols.append("%s [%s, %s]" % tuple(map(fmt, s)) if s else "-")
            delta = ("%+7.1f%%" % (100 * change(summary(a)[0], summary(b)[0]))
                     if a and b else "")
            print("  %-14s %-6s %-30s %-30s %8s  %s"
                  % (spec["name"], spec["unit"], cols[0], cols[1], delta,
                     verdict(spec, a, b) if a and b else ""))
        if lay_a or lay_b:
            print("  %-32s %-6s %14s %14s %9s" % ("layer metric", "unit", "base",
                                                "new", "change"))
            for spec in bench["per_layer"]:
                a, b = lay_a.get(spec["name"]), lay_b.get(spec["name"])
                ma = statistics.median(a) if a else None
                mb = statistics.median(b) if b else None
                delta = ("%+8.1f%%" % (100 * change(ma, mb))
                         if a and b and ma else "")
                print("  %-32s %-6s %14s %14s %9s"
                      % (spec["name"], spec["unit"],
                         fmt(ma) if a else "-", fmt(mb) if b else "-", delta))
        print()


if __name__ == "__main__":
    main()
