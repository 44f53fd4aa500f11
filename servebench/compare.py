#!/usr/bin/env python3
"""Compare two sets of servebench runs.

    python3 servebench/compare.py BASE CHANGE [--markdown]

BASE and CHANGE are each a directory (searched recursively for run.json,
the record servebench/run.py writes per run) or a list of run.json paths
joined with commas. For every workload and metric the tool prints each
side's median and quartiles (Python's statistics.quantiles, n=4), the
relative spread (interquartile distance over the median) and a verdict:

  within   the change's median is no worse than the base's by more than
           the metric's bound, and both spreads are within the bound
  worse    the change's median is worse by more than the bound
  better   the change wins at least nine in ten of all (base, change)
           pairs and the medians differ by more than the base's spread
  unresolved  a spread is wider than the bound (so "within" would claim
           more than the runs show), unless every change run is better
           or every one is worse than every base run

Metrics without a bound (per-layer ones) get the same table with their
verdict computed against a 10% band, marked with "*".
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYER_BAND = 0.10


def quartiles(values):
    """(q1, median, q3) as the benchmark contract computes them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    """One of within / worse / better / unresolved (see module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    _, mb, _ = quartiles(base)
    _, mc, _ = quartiles(change)
    # Positive = the change is better, as a share of the base median.
    gain = sign * (mc - mb) / abs(mb) if mb else 0.0
    pairs = [(b, c) for b in base for c in change]
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) < 0)
    if wins == len(pairs) and gain > 0:
        return "better"
    if losses == len(pairs) and -gain > bound:
        return "worse"
    if max(spread(base), spread(change)) > bound:
        return "unresolved"
    if -gain > bound:
        return "worse"
    if gain > spread(base) and wins >= 0.9 * len(pairs):
        return "better"
    return "within"


def load_runs(arg):
    paths = []
    for part in arg.split(","):
        if os.path.isdir(part):
            for d, _, files in os.walk(part):
                if "run.json" in files:
                    paths.append(os.path.join(d, "run.json"))
        elif part:
            paths.append(part)
    runs = {}
    for p in sorted(paths):
        with open(p) as f:
            rec = json.load(f)
        key = rec["host"]["workload"]
        runs.setdefault(key, []).append(rec["result"])
    return runs


def compare(base_arg, change_arg, spec, markdown=False):
    base, change = load_runs(base_arg), load_runs(change_arg)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for wl in [w["name"] for w in spec["workloads"]]:
        for name, m in metrics.items():
            bv = [r["metrics"][name]["value"] for r in base.get(wl, [])
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in change.get(wl, [])
                  if name in r["metrics"]]
            if not bv or not cv:
                continue
            bound = m.get("bound")
            v = verdict(bv, cv, m["better"], bound or LAYER_BAND)
            rows.append((wl, name, m["unit"], quartiles(bv), spread(bv),
                         len(bv), quartiles(cv), spread(cv), len(cv),
                         bound, v + ("" if bound else "*")))
    head = ("workload", "metric", "unit", "base q1/med/q3", "spread",
            "change q1/med/q3", "spread", "bound", "verdict")
    fmt = lambda q: "%.4g / %.4g / %.4g" % q
    lines = []
    if markdown:
        lines.append("| " + " | ".join(head) + " |")
        lines.append("|" + "---|" * len(head))
    else:
        lines.append("%-12s %-32s %-8s %-32s %7s %-32s %7s %6s %s" % head)
    for (wl, name, unit, qb, sb, nb, qc, sc, nc, bound, v) in rows:
        cells = (wl, name, unit, "%s (n=%d)" % (fmt(qb), nb), "%.3f" % sb,
                 "%s (n=%d)" % (fmt(qc), nc), "%.3f" % sc,
                 "%.2f" % bound if bound else "-", v)
        if markdown:
            lines.append("| " + " | ".join(cells) + " |")
        else:
            lines.append("%-12s %-32s %-8s %-32s %7s %-32s %7s %6s %s" %
                         cells)
    return "\n".join(lines), rows


def selftest():
    """Checks the statistics and the verdict rule on hand-made cases."""
    ok = True

    def expect(what, got, want):
        nonlocal ok
        if got != want:
            print("compare self-test FAILED: %s: got %r, want %r" %
                  (what, got, want))
            ok = False

    # statistics.quantiles (exclusive method) on 1..9: positions 2.5, 5,
    # 7.5 of the sorted values.
    expect("quartiles 1..9", quartiles(list(range(1, 10))), (2.5, 5.0, 7.5))
    expect("spread 1..9", spread(list(range(1, 10))), 1.0)
    flat = [100.0] * 9 + [101.0]
    expect("steady within", verdict(flat, flat, "higher", 0.1), "within")
    expect("clear loss", verdict(flat, [80.0] * 10, "higher", 0.1), "worse")
    expect("lower-is-better loss",
           verdict(flat, [130.0] * 10, "lower", 0.1), "worse")
    expect("clear win", verdict(flat, [120.0] * 10, "higher", 0.1), "better")
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0,
             100.0]
    expect("noisy is unresolved", verdict(noisy, noisy, "higher", 0.1),
           "unresolved")
    expect("small drift within",
           verdict(flat, [98.0] * 9 + [99.0], "higher", 0.1), "within")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--markdown", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    text, rows = compare(args.base, args.change, spec, args.markdown)
    print(text)
    bad = [r for r in rows if r[10] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
