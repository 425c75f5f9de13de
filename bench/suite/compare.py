#!/usr/bin/env python3
"""Compares two BENCH_suite.json documents: A (parent) against B (change).

    python3 bench/suite/compare.py A.json B.json

Repetition i of A is paired with repetition i of B (run them alternately,
with the same --seed, so pair i shares its seed). For every (workload,
end-to-end metric) it prints each side's median and quartiles and one
verdict, with the bounds from BENCHMARK.json:

  gain        B wins at least 9 of 10 pairs (ties count for neither), over
              at least 10 pairs, and the medians differ by more than A's
              interquartile range;
  unresolved  either side's spread (IQR / median) exceeds the bound, and
              B does not read better than A on every run;
  regression  B's median is worse than A's by more than the bound;
  ok          none of the above: within the bound.

Per-layer metrics (traced runs) follow side by side, medians only: they
explain an end-to-end change, they do not gate it. Documents whose cores,
compiler, build type or telemetry setting differ are refused (exit 2);
any regression exits 1.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent
# Provenance fields that must match for two documents to be comparable.
MATCH = ("nproc", "compiler", "build_type", "nylon_obs")
MIN_PAIRS = 10


def incomparable(a, b):
    """Why documents `a` and `b` must not be compared (None if they may)."""
    pa, pb = a.get("provenance", {}), b.get("provenance", {})
    diffs = [f"{k} {pa.get(k)!r} vs {pb.get(k)!r}" for k in MATCH
             if pa.get(k) != pb.get(k)]
    return "; ".join(diffs) or None


def series(doc, workload, metric, traced):
    """The metric's values in run order (the order pairs are formed in)."""
    return [r["result"]["metrics"][metric]["value"] for r in doc["runs"]
            if r["workload"] == workload and r["trace"] == traced
            and metric in r["result"]["metrics"]]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a, b, higher_is_better, bound):
    qa1, ma, qa3 = quartiles(a)
    qb1, mb, qb3 = quartiles(b)
    sign = 1.0 if higher_is_better else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    spread = max((qa3 - qa1) / abs(ma) if ma else 0.0,
                 (qb3 - qb1) / abs(mb) if mb else 0.0)
    worse_by = sign * (ma - mb) / abs(ma) if ma else 0.0
    b_dominates = min(b) > max(a) if higher_is_better else max(b) < min(a)
    if spread > bound and not b_dominates:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regression", wins, len(pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs)
            and sign * (mb - ma) > qa3 - qa1):
        return "gain", wins, len(pairs)
    return "ok", wins, len(pairs)


def fmt(v):
    return f"{v:.6g}"


def report(a, b, out):
    """Prints the comparison; returns the number of regressions."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in contract["workloads"]]
    regressions = 0
    out.write("# end to end (A = parent, B = change; median [q1, q3])\n")
    for w in workloads:
        for m in contract["end_to_end"]:
            va = series(a, w, m["name"], False)
            vb = series(b, w, m["name"], False)
            if not va or not vb:
                continue
            v, wins, n = verdict(va, vb, m["better"] == "higher", m["bound"])
            regressions += v == "regression"
            qa, qb = quartiles(va), quartiles(vb)
            change = 100 * (qb[1] / qa[1] - 1) if qa[1] else 0.0
            note = "" if n >= MIN_PAIRS else f" ({n} pairs: no gain claimable)"
            out.write(
                f"{w:17s} {m['name']:13s} A {fmt(qa[1])} [{fmt(qa[0])}, "
                f"{fmt(qa[2])}]  B {fmt(qb[1])} [{fmt(qb[0])}, {fmt(qb[2])}] "
                f"{m['unit']}  {change:+.1f}%  wins {wins}/{n}  "
                f"bound {m['bound']:.0%}  {v.upper()}{note}\n")
        fa = sum(r["result"]["failed"] for r in a["runs"] if r["workload"] == w)
        fb = sum(r["result"]["failed"] for r in b["runs"] if r["workload"] == w)
        if fa or fb:
            out.write(f"{w:17s} failed units: A {fa}, B {fb}\n")
    out.write("# per layer (traced runs; medians)\n")
    for w in workloads:
        for m in contract["per_layer"]:
            va = series(a, w, m["name"], True)
            vb = series(b, w, m["name"], True)
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{100 * (mb / ma - 1):+.1f}%" if ma else "n/a"
            out.write(f"{w:17s} {m['name']:28s} A {fmt(ma):>12s}  "
                      f"B {fmt(mb):>12s} {m['unit']:12s} {change}\n")
    return regressions


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    a = json.loads(Path(sys.argv[1]).read_text())
    b = json.loads(Path(sys.argv[2]).read_text())
    problem = incomparable(a, b)
    if problem:
        print(f"compare.py: refusing to compare: {problem}", file=sys.stderr)
        return 2
    return 1 if report(a, b, sys.stdout) else 0


if __name__ == "__main__":
    sys.exit(main())
