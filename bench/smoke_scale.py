#!/usr/bin/env python3
"""ctest smoke for the bench_scale shard sweep.

Runs a CI-sized sweep (n=2000, shards 1/2/4), then asserts what the CI
shell steps used to check out-of-band: the binary exits 0 (it verifies
digest equality across shard counts itself), the BENCH JSON parses, the
per-K curve is complete, and every K produced the same state digest.
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

SWEEP = (1, 2, 4)


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
               "--sweep-shards", ",".join(str(k) for k in SWEEP),
               "--json", out]
        print("+", " ".join(cmd), flush=True)
        proc = subprocess.run(cmd)
        assert proc.returncode == 0, \
            f"bench_scale exited {proc.returncode} (digest mismatch?)"

        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)

    assert doc.get("bench") == "scale", doc.get("bench")
    results = doc["results"]
    assert results["digests_consistent"] is True
    sweep = results["sweep"]
    assert [row["shards"] for row in sweep] == list(SWEEP), sweep
    digests = {row["state_digest"] for row in sweep}
    assert len(digests) == 1, f"digest divergence across shards: {digests}"
    for row in sweep:
        assert row["events_executed"] > 0, row
        assert row["events_per_sec"] > 0, row
        # Per-K epoch statistics: present and sane for every sharded
        # entry.
        assert row["epochs"] > 0, row
        assert row["epoch_width_ms_mean"] > 0, row
        assert row["epoch_width_ms_max"] >= row["epoch_width_ms_mean"], row
        assert row["events_per_epoch"] > 0, row
    # The last sweep entry is mirrored into the top-level scalars for
    # single-run consumers; they must agree.
    assert results["state_digest"] == sweep[-1]["state_digest"]
    assert results["events_executed"] == sweep[-1]["events_executed"]
    print(f"ok: shards {SWEEP} -> digest {digests.pop()}, "
          f"{sweep[-1]['events_executed']} events, "
          f"{[row['epochs'] for row in sweep]} epochs per K")
    return 0


if __name__ == "__main__":
    sys.exit(main())
