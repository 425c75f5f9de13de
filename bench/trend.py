#!/usr/bin/env python3
"""Trend line over accumulated BENCH_scale.json artifacts.

CI uploads one BENCH_scale.json per run; pointing this script at a
directory of downloaded artifacts (or at individual files) prints the
events/s trend so per-PR scale regressions are visible at a glance:

    bench/trend.py artifacts_dir
    bench/trend.py run1/BENCH_scale.json run2/BENCH_scale.json

Files are ordered by modification time (oldest first) unless given
explicitly, in which case argument order is kept.

Sweep documents (bench_scale --sweep-shards) expand into one row per
shard count, and the regression gate runs *per shard count*: for every
K present in the newest document, the newest events/s is held against
the best ever recorded for the same K. A serial-engine improvement can
therefore never mask a sharded-engine regression (and vice versa).
Sharded rows also print the epoch statistics (epochs run, mean epoch
width in sim-ms, events per epoch) so an epoch-cutting change shows up
as a visible epoch-count shift, not just a throughput delta. Exits
non-zero when any K in the newest run is more than --threshold percent
below its per-K best; with a single file it just prints the rows.

Memory rides the same gate, lower-is-better: a row's peak_rss_mb and
rss_bytes_per_peer are held against the lowest recorded for the same
(shard count, n), and fail past --threshold percent above
it. bench_scale resets the kernel's peak-RSS mark before each K, so a
sweep row's peak covers that K's run alone; where the reset is refused
it is the process's peak through that K (cumulative). Documents written
before bench_scale reported memory lack both keys and are simply left
out of that comparison.
"""

import argparse
import json
import os
import sys

# Per-row memory keys bench_scale writes (absent from older documents).
MEMORY_FIELDS = ("peak_rss_mb", "rss_bytes_per_peer")


def collect(paths):
    """Expands directories into the BENCH_scale*.json files they hold."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            hits = []
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.startswith("BENCH_scale") and name.endswith(".json"):
                        hits.append(os.path.join(root, name))
            hits.sort(key=lambda p: (os.path.getmtime(p), p))
            files.extend(hits)
        else:
            files.append(path)
    return files


def load_rows(path):
    """Parses one BENCH_scale document into a list of rows — one per
    sweep entry for sweep documents, a single row otherwise. Returns []
    (with a warning) for other BENCH_*.json forms — spec reports carry
    tables/cells/checks/trajectories (and, with --timeline, per-seed
    "timeline" time-series) instead of scale results and must not break
    the gate."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"skipping {path}: {err}", file=sys.stderr)
        return []
    if doc.get("bench") != "scale":
        print(f"skipping {path}: not a BENCH_scale.json document "
              f"(bench={doc.get('bench')!r})", file=sys.stderr)
        return []
    results = doc.get("results", {})
    if not isinstance(results, dict) or "events_per_sec" not in results:
        print(f"skipping {path}: no events_per_sec in results",
              file=sys.stderr)
        return []
    params = doc.get("params", {})
    # Telemetry (PR 6) is optional: older artifacts and serial runs have
    # no profile block, and must keep loading without one.
    profile = doc.get("telemetry", {}).get("profile", {})

    def row(shards, entry, imbalance, barrier):
        return {
            "path": path,
            "n": params.get("n"),
            "shards": shards,
            "events": entry.get("events_executed"),
            "events_per_sec": entry.get("events_per_sec"),
            "run_wall_s": entry.get("run_wall_s"),
            "epochs": entry.get("epochs"),
            "epoch_width_ms_mean": entry.get("epoch_width_ms_mean"),
            "events_per_epoch": entry.get("events_per_epoch"),
            "imbalance": imbalance,
            "barrier_overhead_pct": barrier,
            "peak_rss_mb": entry.get("peak_rss_mb"),
            "rss_bytes_per_peer": entry.get("rss_bytes_per_peer"),
        }

    sweep = results.get("sweep")
    if isinstance(sweep, list) and sweep:
        return [row(entry.get("shards"), entry, entry.get("imbalance"),
                    entry.get("barrier_overhead_pct")) for entry in sweep]
    return [row(params.get("shards"), results, profile.get("imbalance"),
                profile.get("barrier_overhead_pct"))]


def main():
    parser = argparse.ArgumentParser(
        description="events/s trend over BENCH_scale.json artifacts")
    parser.add_argument("paths", nargs="+",
                        help="BENCH_scale.json files or directories of them")
    parser.add_argument("--threshold", type=float, default=0.0,
                        help="fail when any shard count in the newest run is "
                             "this %% slower than its per-K best (0 = never "
                             "fail)")
    args = parser.parse_args()

    files = collect(args.paths)
    if not files:
        print("no BENCH_scale*.json files found", file=sys.stderr)
        return 1

    # rows stay in file order (oldest first); per-file sweep rows keep
    # their in-document K order.
    rows = []
    newest_path = None
    for path in files:
        file_rows = load_rows(path)
        if file_rows:
            rows.extend(file_rows)
            newest_path = path
    if not rows:
        print("no usable BENCH_scale documents found", file=sys.stderr)
        return 1

    header = (f"{'run':<40} {'n':>8} {'K':>3} "
              f"{'events':>12} {'events/s':>12} {'vs best':>9} {'epochs':>8} "
              f"{'ep_w_ms':>8} {'ev/ep':>8} {'imbal':>7} {'barrier':>8} "
              f"{'rss_MB':>8} {'B/peer':>8}")
    print(header)
    print("-" * len(header))

    best_by_k = {}
    for row in rows:
        eps = row["events_per_sec"] or 0.0
        k = row["shards"]
        if eps > best_by_k.get(k, 0.0):
            best_by_k[k] = eps
    for row in rows:
        eps = row["events_per_sec"] or 0.0
        best = best_by_k.get(row["shards"], 0.0)
        vs_best = f"{100.0 * (eps / best - 1.0):+8.1f}%" if best else "        -"
        label = os.path.relpath(row["path"])
        if len(label) > 40:
            label = "..." + label[-37:]
        k = row["shards"] if row["shards"] is not None else "-"
        epochs = (f"{row['epochs']:>8}"
                  if row["epochs"] is not None else f"{'-':>8}")
        width = (f"{row['epoch_width_ms_mean']:>8.1f}"
                 if row["epoch_width_ms_mean"] is not None else f"{'-':>8}")
        ev_ep = (f"{row['events_per_epoch']:>8.1f}"
                 if row["events_per_epoch"] is not None else f"{'-':>8}")
        imbal = (f"{row['imbalance']:>7.3f}"
                 if row["imbalance"] is not None else f"{'-':>7}")
        barrier = (f"{row['barrier_overhead_pct']:>7.1f}%"
                   if row["barrier_overhead_pct"] is not None else f"{'-':>8}")
        rss = (f"{row['peak_rss_mb']:>8.1f}"
               if row["peak_rss_mb"] is not None else f"{'-':>8}")
        per_peer = (f"{row['rss_bytes_per_peer']:>8.0f}"
                    if row["rss_bytes_per_peer"] is not None else f"{'-':>8}")
        print(f"{label:<40} {row['n'] or 0:>8} "
              f"{k:>3} {row['events'] or 0:>12} "
              f"{eps:>12.0f} {vs_best} {epochs} {width} {ev_ep} {imbal} "
              f"{barrier} {rss} {per_peer}")

    # Warn-only balance gate (never affects the exit code): the newest
    # run's shard-balance profile is held against the best (lowest) ever
    # recorded per shard count. Throughput regressions fail via
    # --threshold; imbalance and barrier overhead are noisy on shared CI
    # runners, so a drift there only warns.
    best_balance = {}
    for row in rows:
        key = row["shards"]
        for field in ("imbalance", "barrier_overhead_pct"):
            val = row[field]
            if val is None:
                continue
            prev = best_balance.get((key, field))
            if prev is None or val < prev:
                best_balance[(key, field)] = val
    for row in (r for r in rows if r["path"] == newest_path):
        key = row["shards"]
        for field, slack in (("imbalance", 0.05),
                             ("barrier_overhead_pct", 5.0)):
            val = row[field]
            best = best_balance.get((key, field))
            if val is None or best is None or val <= best + slack:
                continue
            print(f"WARNING: newest run at K={row['shards']} has "
                  f"{field}={val:.3f}, above the best recorded {best:.3f} "
                  f"for that K (warn-only, not a gate failure)",
                  file=sys.stderr)

    if args.threshold > 0:
        failed = False
        for row in (r for r in rows if r["path"] == newest_path):
            eps = row["events_per_sec"] or 0.0
            best = best_by_k.get(row["shards"], 0.0)
            if best <= 0:
                continue
            drop = 100.0 * (1.0 - eps / best)
            if drop > args.threshold:
                print(f"REGRESSION: newest run at K={row['shards']} "
                      f"is {drop:.1f}% below the best for that K "
                      f"({eps:.0f} vs {best:.0f} events/s)", file=sys.stderr)
                failed = True
        # Memory, lower is better, keyed by n as well: peak RSS scales
        # with the population.
        lowest = {}
        for row in rows:
            for field in MEMORY_FIELDS:
                if row[field] is None:
                    continue
                key = (row["shards"], row["n"], field)
                lowest[key] = min(lowest.get(key, row[field]), row[field])
        for row in (r for r in rows if r["path"] == newest_path):
            for field in MEMORY_FIELDS:
                val = row[field]
                best = lowest.get((row["shards"], row["n"], field))
                if val is None or not best:
                    continue
                rise = 100.0 * (val / best - 1.0)
                if rise > args.threshold:
                    print(f"REGRESSION: newest run at K={row['shards']} "
                          f"n={row['n']} has {field}={val:.1f}, {rise:.1f}% "
                          f"above the lowest recorded ({best:.1f})",
                          file=sys.stderr)
                    failed = True
        if failed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
