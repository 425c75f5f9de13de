#!/usr/bin/env sh
# Runs every figure/ablation study and collects machine-readable results.
#
#   bench/run_all.sh [BUILD_DIR] [OUT_DIR] [extra nylon_exp flags...]
#
# Defaults: BUILD_DIR=build, OUT_DIR=bench_results. Extra flags are passed
# to every spec run (e.g. --profile full, --threads 0, --n 2000).
#
# Every figure reproduction is a declarative experiment spec executed by
# the nylon_exp driver (examples/specs/*.json); the last hand-rolled
# bench mains were retired when the probe taxonomy landed. A non-zero
# nylon_exp exit also covers failed check probes (table1/sec5 verdicts).
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_results}"
[ $# -ge 1 ] && shift
[ $# -ge 1 ] && shift

SPEC_DIR="$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)/examples/specs"

if [ ! -d "$BUILD_DIR" ]; then
  echo "build dir '$BUILD_DIR' not found — run: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi
if [ ! -x "$BUILD_DIR/nylon_exp" ]; then
  echo "nylon_exp not built in '$BUILD_DIR'" >&2
  exit 1
fi
mkdir -p "$OUT_DIR"

# Declarative studies: every spec file, each executed by nylon_exp.
status=0
for spec_file in "$SPEC_DIR"/*.json; do
  spec="$(basename "$spec_file" .json)"
  echo "== $spec (spec) =="
  if "$BUILD_DIR/nylon_exp" "$spec_file" \
      --json "$OUT_DIR/BENCH_${spec}.json" "$@" \
      > "$OUT_DIR/spec_${spec}.txt" 2>&1; then
    tail -n +1 "$OUT_DIR/spec_${spec}.txt" | head -5
  else
    echo "FAILED — see $OUT_DIR/spec_${spec}.txt" >&2
    status=1
  fi
done

echo
echo "Results in $OUT_DIR:"
ls -1 "$OUT_DIR"
exit $status
