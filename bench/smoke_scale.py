#!/usr/bin/env python3
"""ctest smoke for a bench_scale shard list.

Runs a CI-sized universe (n=2000) on shards 1, 2 and 4, then asserts:
the binary exits 0 (it holds every K >= 1 to the first on the state
digest, event and epoch counts, population and biggest cluster itself),
the BENCH JSON parses, `results.runs` has one row per K in flag order,
those rows agree on the same fields, and every K > 1 crossed at most one
barrier per epoch.
Invoked by CMake as a tier-1 test so a layout or allocator change that
breaks the determinism contract fails `ctest`, not just CI.

    bench/smoke_scale.py --bench build/bench_scale

With --reject, it instead checks that each FLAG=VALUE given is refused
up front: bench_scale must exit 1 with a usage message, not crash.

    bench/smoke_scale.py --bench build/bench_scale --reject n=-1 n=0
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

SHARDS = (1, 2, 4)
# What the determinism contract pins across K >= 1 (bench_scale checks
# the same list before it exits).
PINNED = ("state_digest", "events_executed", "epochs", "alive_peers",
          "joined", "departed", "biggest_cluster_pct")


def reject(bench, cases):
    for case in cases:
        flag, _, value = case.partition("=")
        cmd = [bench, "--" + flag, value]
        print("+", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 1, \
            f"{case}: exit {proc.returncode}, stderr {proc.stderr[-300:]!r}"
        assert f"--{flag}" in proc.stderr and "usage" in proc.stderr, \
            f"{case}: no usage error: {proc.stderr[-300:]!r}"
        assert not proc.stdout, f"{case}: ran anyway: {proc.stdout[:200]!r}"
    print(f"ok: bench_scale refused {len(cases)} bad values")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to the bench_scale binary")
    parser.add_argument("--reject", nargs="+", metavar="FLAG=VALUE",
                        help="bad flag values bench_scale must refuse")
    args = parser.parse_args()
    if args.reject:
        return reject(args.bench, args.reject)

    with tempfile.TemporaryDirectory(prefix="smoke_scale") as tmp:
        out = os.path.join(tmp, "BENCH_scale.json")
        cmd = [args.bench, "--n", "2000", "--warmup", "5",
               "--churn-rounds", "10",
               "--shards", ",".join(str(k) for k in SHARDS),
               "--json", out]
        print("+", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd)
        assert proc.returncode == 0, \
            f"bench_scale exited {proc.returncode} (shard divergence?)"

        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)

    assert doc.get("bench") == "scale", doc.get("bench")
    results = doc["results"]
    assert set(results) == {"runs", "digests_consistent"}, sorted(results)
    assert results["digests_consistent"] is True
    runs = results["runs"]
    assert [row["shards"] for row in runs] == list(SHARDS), runs
    pinned = {tuple(row[k] for k in PINNED) for row in runs}
    assert len(pinned) == 1, f"divergence across shards: {pinned}"
    assert runs[0]["speedup_vs_first"] == 1.0, runs[0]
    for row in runs:
        assert row["events_executed"] > 0, row
        assert row["events_per_sec"] > 0, row
        # Per-K epoch statistics: present and sane for every sharded
        # entry.
        assert row["epochs"] > 0, row
        assert row["epoch_width_ms_mean"] > 0, row
        assert row["epoch_width_ms_max"] >= row["epoch_width_ms_mean"], row
        assert row["events_per_epoch"] > 0, row
        # One barrier crossing per epoch: the busiest shard waits at
        # most once per epoch (K=1 has no barrier at all). The profile is
        # absent only from telemetry-free (NYLON_OBS=OFF) builds.
        if row["shards"] > 1 and "barrier_overhead_pct" in row:
            assert row["crossings_per_epoch"] <= 1.0, row
    print(f"ok: shards {SHARDS} -> digest {runs[0]['state_digest']}, "
          f"{runs[0]['events_executed']} events, "
          f"{[row['epochs'] for row in runs]} epochs per K")
    return 0


if __name__ == "__main__":
    sys.exit(main())
