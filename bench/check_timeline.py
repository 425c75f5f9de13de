#!/usr/bin/env python3
"""Sanity checks for one spec run's timeline artifacts.

A spec run with a timeline writes it three ways: the "timeline" block of
its BENCH JSON, a per-seed CSV (--timeline-csv) and timeline/<column>
counter tracks in a Perfetto trace (--trace). This script checks all
three agree and are well formed; the first violation fails an assert
(non-zero exit):

  * the first column is t_s and at least one more column follows;
  * every per-seed series has strictly monotone sim time and one value
    per column;
  * the CSV header is ["cell", "seed"] + the columns, with data rows;
  * the trace holds a timeline/<column> counter track for every column.

    bench/check_timeline.py BENCH.json timeline.csv trace.json
"""

import argparse
import csv
import json


def check(doc_path, csv_path, trace_path):
    with open(doc_path, encoding="utf-8") as fh:
        tl = json.load(fh)["timeline"]
    columns = tl["columns"]
    ncols = len(columns)
    assert ncols >= 2 and columns[0] == "t_s", columns
    for cell in tl["cells"]:
        for series in cell["per_seed"]:
            ts = [s[0] for s in series]
            assert ts == sorted(ts) and len(set(ts)) == len(ts), \
                "sim time not strictly monotone"
            assert all(len(s) == ncols for s in series), "ragged sample"

    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows and rows[0] == ["cell", "seed"] + columns, rows[:1]
    assert len(rows) > 1, "empty timeline csv"

    with open(trace_path, encoding="utf-8") as fh:
        trace = json.load(fh)
    counters = [ev for ev in trace["traceEvents"] if ev["ph"] == "C"]
    tracks = {ev["name"] for ev in counters}
    want = {"timeline/" + c for c in columns[1:]}
    assert want <= tracks, f"missing counter tracks: {sorted(want - tracks)}"
    print(f"timeline ok: {ncols - 1} columns, {len(rows) - 1} csv rows, "
          f"{len(counters)} counter events")


def main():
    parser = argparse.ArgumentParser(
        description="check a spec run's timeline JSON, CSV and trace")
    parser.add_argument("doc", help="BENCH JSON written with a timeline")
    parser.add_argument("csv", help="the run's --timeline-csv file")
    parser.add_argument("trace", help="the run's --trace file")
    args = parser.parse_args()
    check(args.doc, args.csv, args.trace)


if __name__ == "__main__":
    main()
